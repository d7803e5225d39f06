(* Tests for the third extension wave: structural certificates (girth,
   tree-likeness), special functions, chi-square tests, ASCII plots and
   network partitions. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Structure = Rumor_graph.Structure
module Traversal = Rumor_test_support.Traversal
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Overlay = Rumor_p2p.Overlay
module Partition = Rumor_p2p.Partition
module Special = Rumor_test_support.Special
module Chisq = Rumor_test_support.Chisq
module Plot = Rumor_stats.Plot

let rng0 () = Rng.create 1

(* --- Structure --- *)

let test_girth_known_graphs () =
  let g girth_of = Structure.girth ~rng:(rng0 ()) girth_of in
  Alcotest.(check (option int)) "triangle" (Some 3) (g (Classic.complete 3));
  Alcotest.(check (option int)) "K5" (Some 3) (g (Classic.complete 5));
  Alcotest.(check (option int)) "C7" (Some 7) (g (Classic.cycle 7));
  Alcotest.(check (option int)) "hypercube" (Some 4) (g (Classic.hypercube 4));
  Alcotest.(check (option int)) "path acyclic" None (g (Classic.path 6));
  Alcotest.(check (option int)) "star acyclic" None (g (Classic.star 6))

let test_girth_multigraph () =
  let g = Structure.girth ~rng:(rng0 ()) in
  Alcotest.(check (option int)) "self loop" (Some 1)
    (g (Graph.of_edges ~n:2 [ (0, 0); (0, 1) ]));
  Alcotest.(check (option int)) "parallel edge" (Some 2)
    (g (Graph.of_edges ~n:2 [ (0, 1); (0, 1) ]))

let test_girth_sampled_roots () =
  (* Sampling roots on a large cycle still finds the only cycle. *)
  let g = Classic.cycle 600 in
  match Structure.girth ~max_roots:10 ~rng:(rng0 ()) g with
  | Some girth -> Alcotest.(check int) "cycle found" 600 girth
  | None -> Alcotest.fail "missed the cycle"

let test_ball_is_tree () =
  let path = Classic.path 9 in
  Alcotest.(check bool) "path ball" true (Structure.ball_is_tree path 4 ~radius:3);
  let tri = Classic.complete 3 in
  Alcotest.(check bool) "triangle ball radius 1" false
    (Structure.ball_is_tree tri 0 ~radius:1);
  let cyc = Classic.cycle 20 in
  Alcotest.(check bool) "short ball on long cycle is a path" true
    (Structure.ball_is_tree cyc 0 ~radius:3);
  Alcotest.(check bool) "whole cycle is not a tree" false
    (Structure.ball_is_tree cyc 0 ~radius:10)

let test_tree_fraction_random_regular () =
  let rng = Rng.create 2 in
  let g = Regular.sample_connected ~rng ~n:4096 ~d:4 Regular.Pairing in
  let f = Structure.tree_fraction g ~rng ~radius:2 ~samples:300 in
  Alcotest.(check bool)
    (Printf.sprintf "locally tree-like (%.2f)" f)
    true (f > 0.9);
  (* The whole graph is very much not a tree. *)
  let whole = Structure.tree_fraction g ~rng ~radius:20 ~samples:20 in
  Alcotest.(check (float 1e-9)) "global balls contain cycles" 0. whole

(* --- Special functions --- *)

let close ?(eps = 1e-4) a b = abs_float (a -. b) < eps

let test_log_gamma () =
  (* Gamma(5) = 24, Gamma(0.5) = sqrt pi. *)
  Alcotest.(check bool) "log_gamma 5" true
    (close (Special.log_gamma 5.) (log 24.));
  Alcotest.(check bool) "log_gamma 0.5" true
    (close (Special.log_gamma 0.5) (log (sqrt Float.pi)));
  Alcotest.(check bool) "log_gamma 1 = 0" true (close (Special.log_gamma 1.) 0.);
  Alcotest.(check bool) "log_gamma 10" true
    (close ~eps:1e-6 (Special.log_gamma 10.) (log 362880.))

let test_regularized_gamma () =
  (* P(1, x) = 1 - e^-x. *)
  Alcotest.(check bool) "P(1,1)" true
    (close (Special.regularized_gamma_p 1. 1.) (1. -. exp (-1.)));
  Alcotest.(check bool) "P(1,0) = 0" true
    (close (Special.regularized_gamma_p 1. 0.) 0.);
  Alcotest.(check bool) "Q complements P" true
    (close
       (Special.regularized_gamma_p 2.5 3.
       +. Special.regularized_gamma_q 2.5 3.)
       1.);
  (* chi-square with 2 dof: Q(1, x/2) = e^{-x/2}; at x = 5.991, p = 0.05. *)
  Alcotest.(check bool) "chi2 critical value" true
    (close ~eps:1e-3 (Special.regularized_gamma_q 1. (5.991 /. 2.)) 0.05);
  Alcotest.check_raises "bad a"
    (Invalid_argument "Special.regularized_gamma_p: a <= 0") (fun () ->
      ignore (Special.regularized_gamma_p 0. 1.))

let test_incomplete_beta () =
  (* I_x(1,1) = x. *)
  Alcotest.(check bool) "I_x(1,1)" true
    (close (Special.incomplete_beta 1. 1. 0.3) 0.3);
  (* Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a). *)
  Alcotest.(check bool) "symmetry" true
    (close
       (Special.incomplete_beta 2. 3. 0.4)
       (1. -. Special.incomplete_beta 3. 2. 0.6))

(* --- Chi-square --- *)

let test_chisq_uniform_accepts_uniform () =
  let rng = Rng.create 3 in
  let counts = Array.make 10 0 in
  for _ = 1 to 100_000 do
    let x = Rng.int rng 10 in
    counts.(x) <- counts.(x) + 1
  done;
  let o = Chisq.uniform counts in
  Alcotest.(check bool)
    (Printf.sprintf "PRNG passes (p=%.3f)" o.Chisq.p_value)
    true o.Chisq.uniform_plausible;
  Alcotest.(check int) "dof" 9 o.Chisq.dof

let test_chisq_rejects_biased () =
  let counts = [| 1000; 1000; 1000; 5000 |] in
  let o = Chisq.uniform counts in
  Alcotest.(check bool) "biased histogram rejected" false o.Chisq.uniform_plausible;
  Alcotest.(check bool) "p tiny" true (o.Chisq.p_value < 1e-6)

let test_chisq_goodness_of_fit () =
  (* Perfect fit: statistic 0, p = 1. *)
  let o =
    Chisq.goodness_of_fit ~observed:[| 10; 20; 30 |]
      ~expected:[| 10.; 20.; 30. |]
  in
  Alcotest.(check (float 1e-9)) "statistic 0" 0. o.Chisq.statistic;
  Alcotest.(check bool) "p = 1" true (o.Chisq.p_value > 0.999)

let test_chisq_validation () =
  Alcotest.check_raises "one cell" (Invalid_argument "Chisq.uniform: need >= 2 cells")
    (fun () -> ignore (Chisq.uniform [| 5 |]));
  Alcotest.check_raises "zero total" (Invalid_argument "Chisq.uniform: zero total")
    (fun () -> ignore (Chisq.uniform [| 0; 0 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Chisq.goodness_of_fit: length mismatch") (fun () ->
      ignore (Chisq.goodness_of_fit ~observed:[| 1; 2 |] ~expected:[| 1. |]));
  Alcotest.check_raises "bad expected"
    (Invalid_argument "Chisq.goodness_of_fit: expected <= 0") (fun () ->
      ignore (Chisq.goodness_of_fit ~observed:[| 1; 2 |] ~expected:[| 1.; 0. |]))

let test_chisq_walk_mixing () =
  (* A mixed random walk on a regular graph passes the uniformity test. *)
  let rng = Rng.create 4 in
  let g = Regular.sample_connected ~rng ~n:64 ~d:8 Regular.Pairing in
  let counts =
    Rumor_test_support.Walk.endpoint_counts rng g ~start:0 ~length:60 ~samples:64_000
  in
  let o = Chisq.uniform counts in
  Alcotest.(check bool)
    (Printf.sprintf "walk endpoints uniform (p=%.3f)" o.Chisq.p_value)
    true o.Chisq.uniform_plausible

(* --- Plot --- *)

let test_plot_renders () =
  let s =
    Plot.render ~width:20 ~height:6
      [
        { Plot.name = "a"; marker = '*'; points = [ (0., 0.); (1., 1.) ] };
        { Plot.name = "b"; marker = 'o'; points = [ (0.5, 0.2) ] };
      ]
  in
  Alcotest.(check bool) "contains markers" true
    (String.contains s '*' && String.contains s 'o');
  Alcotest.(check bool) "contains legend" true (String.contains s '=');
  (* 6 grid rows with | borders *)
  let bars = String.fold_left (fun acc c -> if c = '|' then acc + 1 else acc) 0 s in
  Alcotest.(check int) "grid rows bordered" 12 bars

let test_plot_empty () =
  Alcotest.(check string) "empty plot" "(empty plot)\n" (Plot.render []);
  Alcotest.(check string) "nan-only plot" "(empty plot)\n"
    (Plot.render [ { Plot.name = "x"; marker = '*'; points = [ (nan, 1.) ] } ])

let test_plot_validation () =
  Alcotest.check_raises "width" (Invalid_argument "Plot.render: width < 8")
    (fun () -> ignore (Plot.render ~width:2 []));
  Alcotest.check_raises "height" (Invalid_argument "Plot.render: height < 4")
    (fun () -> ignore (Plot.render ~height:1 []))

let test_plot_constant_series () =
  (* Degenerate ranges must not divide by zero. *)
  let s =
    Plot.render
      [ { Plot.name = "c"; marker = '#'; points = [ (1., 1.); (1., 1.) ] } ]
  in
  Alcotest.(check bool) "renders" true (String.contains s '#')

(* --- Partition --- *)

let overlay_regular seed =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n:128 ~d:6 Regular.Pairing in
  Overlay.of_graph ~capacity:128 g

let test_partition_split_and_heal () =
  let o = overlay_regular 5 in
  let edges_before = Overlay.edge_count o in
  let rng = Rng.create 6 in
  let p = Partition.split_random o ~rng ~fraction:0.3 in
  Alcotest.(check bool) "some edges cut" true (Partition.cut_size p > 0);
  Alcotest.(check int) "edges removed from overlay"
    (edges_before - Partition.cut_size p)
    (Overlay.edge_count o);
  Alcotest.(check bool) "invariant during partition" true (Overlay.invariant o);
  Partition.heal o p;
  Alcotest.(check int) "edges restored" edges_before (Overlay.edge_count o);
  Alcotest.(check bool) "invariant after heal" true (Overlay.invariant o);
  Alcotest.(check int) "heal emptied the cut" 0 (Partition.cut_size p);
  (* Idempotent. *)
  Partition.heal o p;
  Alcotest.(check int) "second heal is a no-op" edges_before (Overlay.edge_count o)

let test_partition_disconnects () =
  let o = overlay_regular 7 in
  let p = Partition.split_by o ~side:(fun v -> v < 64) in
  Alcotest.(check bool) "cut nonempty" true (Partition.cut_size p > 0);
  let g = Overlay.snapshot o in
  let halves_disconnected =
    let d = Rumor_test_support.Traversal.bfs g 0 in
    let reaches_other = ref false in
    for v = 64 to 127 do
      if d.(v) >= 0 then reaches_other := true
    done;
    not !reaches_other
  in
  Alcotest.(check bool) "halves disconnected" true halves_disconnected

let test_partition_validation () =
  let o = overlay_regular 8 in
  let rng = Rng.create 9 in
  Alcotest.check_raises "fraction"
    (Invalid_argument "Partition.split_random: fraction out of range") (fun () ->
      ignore (Partition.split_random o ~rng ~fraction:1.5))

let test_partition_broadcast_window () =
  (* A partition during the broadcast leaves the minority side dark; a
     second broadcast after healing reaches everyone. *)
  let rng = Rng.create 10 in
  let n = 1024 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let o = Overlay.of_graph ~capacity:n g in
  let p = Partition.split_by o ~side:(fun v -> v >= n / 2) in
  let params = Rumor_core.Params.make ~alpha:2.0 ~n_estimate:n ~d:8 () in
  let res1 =
    Engine.run ~rng
      ~topology:(Overlay.to_topology o)
      ~protocol:(Rumor_core.Algorithm.make params)
      ~sources:[ 0 ] ()
  in
  Alcotest.(check bool) "minority side dark" true
    (res1.Engine.informed <= n / 2);
  Partition.heal o p;
  let res2 =
    Engine.run ~rng
      ~topology:(Overlay.to_topology o)
      ~protocol:(Rumor_core.Algorithm.make params)
      ~sources:[ 0 ] ()
  in
  Alcotest.(check bool) "healed broadcast completes" true (Engine.success res2)

(* --- qcheck properties --- *)

let prop_gamma_p_monotone =
  QCheck.Test.make ~count:100 ~name:"regularized gamma P is monotone in x"
    QCheck.(pair (float_range 0.5 5.) (float_range 0. 10.))
    (fun (a, x) ->
      Special.regularized_gamma_p a x
      <= Special.regularized_gamma_p a (x +. 0.5) +. 1e-9)

let prop_partition_heal_restores =
  QCheck.Test.make ~count:30 ~name:"partition + heal restores edge count"
    QCheck.(pair small_int (float_range 0. 1.))
    (fun (seed, fraction) ->
      let o = overlay_regular (seed + 100) in
      let before = Overlay.edge_count o in
      let rng = Rng.create (seed + 200) in
      let p = Partition.split_random o ~rng ~fraction in
      Partition.heal o p;
      Overlay.edge_count o = before && Overlay.invariant o)

let prop_chisq_p_in_range =
  QCheck.Test.make ~count:100 ~name:"chi-square p-value lies in [0,1]"
    QCheck.(array_of_size (Gen.int_range 2 12) (int_range 1 1000))
    (fun counts ->
      let o = Chisq.uniform counts in
      o.Chisq.p_value >= 0. && o.Chisq.p_value <= 1.)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_gamma_p_monotone; prop_partition_heal_restores; prop_chisq_p_in_range ]

let () =
  Alcotest.run "extensions-3"
    [
      ( "structure",
        [
          Alcotest.test_case "girth known" `Quick test_girth_known_graphs;
          Alcotest.test_case "girth multigraph" `Quick test_girth_multigraph;
          Alcotest.test_case "girth sampled" `Quick test_girth_sampled_roots;
          Alcotest.test_case "ball is tree" `Quick test_ball_is_tree;
          Alcotest.test_case "tree fraction" `Slow test_tree_fraction_random_regular;
        ] );
      ( "special",
        [
          Alcotest.test_case "log gamma" `Quick test_log_gamma;
          Alcotest.test_case "regularized gamma" `Quick test_regularized_gamma;
          Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta;
        ] );
      ( "chisq",
        [
          Alcotest.test_case "accepts uniform" `Quick test_chisq_uniform_accepts_uniform;
          Alcotest.test_case "rejects biased" `Quick test_chisq_rejects_biased;
          Alcotest.test_case "goodness of fit" `Quick test_chisq_goodness_of_fit;
          Alcotest.test_case "validation" `Quick test_chisq_validation;
          Alcotest.test_case "walk mixing" `Slow test_chisq_walk_mixing;
        ] );
      ( "plot",
        [
          Alcotest.test_case "renders" `Quick test_plot_renders;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "validation" `Quick test_plot_validation;
          Alcotest.test_case "constant series" `Quick test_plot_constant_series;
        ] );
      ( "partition",
        [
          Alcotest.test_case "split and heal" `Quick test_partition_split_and_heal;
          Alcotest.test_case "disconnects" `Quick test_partition_disconnects;
          Alcotest.test_case "validation" `Quick test_partition_validation;
          Alcotest.test_case "broadcast window" `Slow test_partition_broadcast_window;
        ] );
      ("properties", qcheck_cases);
    ]
