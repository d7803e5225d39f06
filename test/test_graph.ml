(* Tests for the rumor_graph library: CSR graphs, builder, traversal,
   metrics, spectral estimates and mixing checks. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Builder = Rumor_graph.Builder
module Traversal = Rumor_test_support.Traversal
module Metrics = Rumor_test_support.Metrics
module Spectral = Rumor_test_support.Spectral
module Mixing = Rumor_test_support.Mixing

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]
let path4 () = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]

(* --- Graph basics --- *)

let test_of_edges_basic () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  for v = 0 to 2 do
    Alcotest.(check int) "degree" 2 (Graph.degree g v)
  done

let test_of_edges_range_check () =
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Graph.of_edges: endpoint range") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 2) ]))

let test_create_validation () =
  Alcotest.check_raises "bad offsets"
    (Invalid_argument "Graph.create: offset endpoints") (fun () ->
      ignore (Graph.create ~n:2 ~off:[| 0; 1; 3 |] ~adj:[| 1; 0 |]));
  Alcotest.check_raises "decreasing offsets"
    (Invalid_argument "Graph.create: offsets decrease") (fun () ->
      ignore (Graph.create ~n:3 ~off:[| 0; 2; 1; 3 |] ~adj:[| 1; 2; 0 |]));
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Graph.create: endpoint range") (fun () ->
      ignore (Graph.create ~n:2 ~off:[| 0; 1; 2 |] ~adj:[| 1; 5 |]))

let test_empty_graph () =
  let g = Graph.of_edges ~n:0 [] in
  Alcotest.(check int) "n" 0 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.m g);
  Alcotest.(check int) "max degree" 0 (Graph.max_degree g);
  Alcotest.(check int) "min degree" 0 (Graph.min_degree g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let test_isolated_vertices () =
  let g = Graph.of_edges ~n:5 [ (0, 1) ] in
  Alcotest.(check int) "degree of isolated" 0 (Graph.degree g 3);
  Alcotest.(check int) "min degree" 0 (Graph.min_degree g);
  Alcotest.(check int) "max degree" 1 (Graph.max_degree g)

let test_neighbors () =
  let g = path4 () in
  let nb = Graph.neighbors g 1 in
  Array.sort compare nb;
  Alcotest.(check (array int)) "neighbors of 1" [| 0; 2 |] nb;
  Alcotest.(check int) "neighbor accessor" nb.(0)
    (min (Graph.neighbor g 1 0) (Graph.neighbor g 1 1))

let test_iter_fold_neighbors () =
  let g = triangle () in
  let seen = ref [] in
  Graph.iter_neighbors g 0 (fun w -> seen := w :: !seen);
  Alcotest.(check int) "iter visits degree-many" 2 (List.length !seen);
  let sum = Graph.fold_neighbors g 0 ( + ) 0 in
  Alcotest.(check int) "fold sums neighbors" 3 sum

let test_mem_edge () =
  let g = path4 () in
  Alcotest.(check bool) "0-1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "1-0" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "0-2 absent" false (Graph.mem_edge g 0 2);
  Alcotest.(check bool) "0-3 absent" false (Graph.mem_edge g 0 3)

let test_self_loop_convention () =
  let g = Graph.of_edges ~n:2 [ (0, 0); (0, 1) ] in
  Alcotest.(check int) "self loop adds 2 to degree" 3 (Graph.degree g 0);
  Alcotest.(check int) "m counts loop once" 2 (Graph.m g);
  Alcotest.(check int) "loop count" 1 (Graph.count_self_loops g);
  Alcotest.(check bool) "not simple" false (Graph.is_simple g)

let test_parallel_edges () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 1); (1, 2) ] in
  Alcotest.(check int) "surplus copies" 1 (Graph.count_parallel_edges g);
  Alcotest.(check bool) "not simple" false (Graph.is_simple g);
  Alcotest.(check int) "degree counts copies" 3 (Graph.degree g 1)

let test_is_regular () =
  Alcotest.(check (option int)) "triangle is 2-regular" (Some 2)
    (Graph.is_regular (triangle ()));
  Alcotest.(check (option int)) "path is irregular" None
    (Graph.is_regular (path4 ()))

let test_to_edges_roundtrip () =
  let edges = [ (0, 1); (1, 2); (2, 3); (0, 3); (1, 1) ] in
  let g = Graph.of_edges ~n:4 edges in
  let g2 = Graph.of_edges ~n:4 (Graph.to_edges g) in
  Alcotest.(check int) "same m" (Graph.m g) (Graph.m g2);
  for v = 0 to 3 do
    Alcotest.(check int) "same degree" (Graph.degree g v) (Graph.degree g2 v)
  done

let test_iter_edges_count () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 3) ] in
  let count = ref 0 in
  Graph.iter_edges g (fun _ _ -> incr count);
  Alcotest.(check int) "edge visits" 4 !count

let test_invariant_holds () =
  Alcotest.(check bool) "triangle" true (Graph.invariant (triangle ()));
  Alcotest.(check bool) "path" true (Graph.invariant (path4 ()));
  let loops = Graph.of_edges ~n:2 [ (0, 0); (1, 1); (0, 1) ] in
  Alcotest.(check bool) "loops" true (Graph.invariant loops)

(* --- Builder --- *)

let test_builder_basic () =
  let b = Builder.create ~capacity:1 ~n:3 () in
  Builder.add_edge b 0 1;
  Builder.add_edge b 1 2;
  let g = Builder.build b in
  Alcotest.(check int) "built m" 2 (Graph.m g);
  Alcotest.(check bool) "invariant" true (Graph.invariant g)

let test_builder_growth () =
  let b = Builder.create ~capacity:1 ~n:100 () in
  for i = 0 to 98 do
    Builder.add_edge b i (i + 1)
  done;
  let g = Builder.build b in
  Alcotest.(check int) "m" 99 (Graph.m g)

let test_builder_snapshot_semantics () =
  let b = Builder.create ~n:3 () in
  Builder.add_edge b 0 1;
  let g1 = Builder.build b in
  Builder.add_edge b 1 2;
  let g2 = Builder.build b in
  Alcotest.(check int) "snapshot unchanged" 1 (Graph.m g1);
  Alcotest.(check int) "new snapshot grows" 2 (Graph.m g2)

let test_builder_validation () =
  let b = Builder.create ~n:2 () in
  Alcotest.check_raises "range" (Invalid_argument "Builder.add_edge: endpoint range")
    (fun () -> Builder.add_edge b 0 2)

(* --- Traversal --- *)

let test_bfs_path () =
  let g = path4 () in
  Alcotest.(check (array int)) "distances from 0" [| 0; 1; 2; 3 |] (Traversal.bfs g 0)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let d = Traversal.bfs g 0 in
  Alcotest.(check int) "reachable" 1 d.(1);
  Alcotest.(check int) "unreachable" (-1) d.(2)

let test_bfs_multi () =
  let g = Rumor_test_support.Classic.cycle 10 in
  let d = Traversal.bfs_multi g [ 0; 5 ] in
  Alcotest.(check int) "nearest source 0" 0 d.(0);
  Alcotest.(check int) "nearest source 5" 0 d.(5);
  Alcotest.(check int) "between" 2 d.(3)

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let labels, k = Traversal.components g in
  Alcotest.(check int) "3 components" 3 k;
  Alcotest.(check bool) "0,1,2 together" true
    (labels.(0) = labels.(1) && labels.(1) = labels.(2));
  Alcotest.(check bool) "3,4 together" true (labels.(3) = labels.(4));
  Alcotest.(check bool) "5 alone" true
    (labels.(5) <> labels.(0) && labels.(5) <> labels.(3))

let test_is_connected () =
  Alcotest.(check bool) "triangle connected" true (Traversal.is_connected (triangle ()));
  Alcotest.(check bool) "two parts" false
    (Traversal.is_connected (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]))

let test_largest_component () =
  let g = Graph.of_edges ~n:7 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  Alcotest.(check int) "largest" 3 (Traversal.largest_component g)

let test_eccentricity () =
  Alcotest.(check int) "path end" 3 (Traversal.eccentricity (path4 ()) 0);
  Alcotest.(check int) "path middle" 2 (Traversal.eccentricity (path4 ()) 1)

let test_diameter_cycle () =
  let g = Rumor_test_support.Classic.cycle 12 in
  let rng = Rng.create 1 in
  Alcotest.(check int) "cycle diameter" 6
    (Traversal.diameter_lower_bound g ~rng ~samples:4)

let test_average_distance_complete () =
  let g = Rumor_test_support.Classic.complete 20 in
  let rng = Rng.create 2 in
  let avg = Traversal.average_distance g ~rng ~samples:5 in
  Alcotest.(check (float 1e-9)) "complete graph distance 1" 1. avg

(* The searches allocate their O(n) arrays on the major heap and
   nothing per vertex: a closure per dequeued vertex would show here as
   several minor words per node. *)
let test_traversal_allocation () =
  let n = 10_000 in
  let g = Rumor_test_support.Classic.cycle n in
  List.iter
    (fun (name, f) ->
      let before = Gc.minor_words () in
      f ();
      let words = Gc.minor_words () -. before in
      if words > 100. then
        Alcotest.failf "%s: %.0f minor words over %d vertices" name words n)
    [
      ("components", fun () -> ignore (Traversal.components g));
      ("bfs", fun () -> ignore (Traversal.bfs g 0));
      ("is_connected", fun () -> ignore (Traversal.is_connected g));
    ]

(* --- Metrics --- *)

let test_degree_stats () =
  let s = Metrics.degree_stats (Rumor_test_support.Classic.complete 5) in
  Alcotest.(check int) "min" 4 s.Metrics.min;
  Alcotest.(check int) "max" 4 s.Metrics.max;
  Alcotest.(check (float 1e-9)) "mean" 4. s.Metrics.mean;
  Alcotest.(check (float 1e-9)) "variance" 0. s.Metrics.variance

let test_degree_histogram () =
  let g = Rumor_test_support.Classic.star 5 in
  let h = Metrics.degree_histogram g in
  Alcotest.(check int) "hub bin" 1 h.(4);
  Alcotest.(check int) "leaf bin" 4 h.(1)

let test_triangles () =
  let k4 = Rumor_test_support.Classic.complete 4 in
  Alcotest.(check int) "K4 triangles at a vertex" 3 (Metrics.triangles_at k4 0);
  Alcotest.(check int) "cycle has none" 0
    (Metrics.triangles_at (Rumor_test_support.Classic.cycle 5) 0)

let test_clustering () =
  Alcotest.(check (float 1e-9)) "complete clustering" 1.
    (Metrics.local_clustering (Rumor_test_support.Classic.complete 6) 0);
  Alcotest.(check (float 1e-9)) "cycle clustering" 0.
    (Metrics.local_clustering (Rumor_test_support.Classic.cycle 6) 0);
  Alcotest.(check (float 1e-9)) "leaf clustering" 0.
    (Metrics.local_clustering (Rumor_test_support.Classic.star 4) 1)

let test_global_clustering () =
  let rng = Rng.create 3 in
  let c =
    Metrics.global_clustering (Rumor_test_support.Classic.complete 8) ~rng ~samples:20
  in
  Alcotest.(check (float 1e-9)) "complete global" 1. c

let test_edge_boundary () =
  let g = Rumor_test_support.Classic.cycle 8 in
  let inside = Array.init 8 (fun i -> i < 4) in
  Alcotest.(check int) "cycle cut" 2 (Metrics.edge_boundary g inside);
  Alcotest.(check int) "internal edges" 3 (Metrics.internal_edges g inside)

let test_conductance () =
  let g = Rumor_test_support.Classic.cycle 8 in
  let inside = Array.init 8 (fun i -> i < 4) in
  Alcotest.(check (float 1e-9)) "cycle conductance" (2. /. 8.)
    (Metrics.conductance g inside)

(* --- Spectral --- *)

let test_lambda2_complete () =
  (* K_n adjacency spectrum: n-1 once, -1 with multiplicity n-1. *)
  let rng = Rng.create 4 in
  let l2 = Spectral.lambda2 (Rumor_test_support.Classic.complete 16) ~rng ~iters:80 in
  Alcotest.(check bool) "lambda2(K16) near 1" true (abs_float (l2 -. 1.) < 0.05)

let test_lambda2_cycle () =
  (* Even cycles are bipartite: the adjacency spectrum contains -2, so
     the largest non-principal absolute eigenvalue is exactly 2. *)
  let rng = Rng.create 5 in
  let l2 = Spectral.lambda2 (Rumor_test_support.Classic.cycle 20) ~rng ~iters:400 in
  Alcotest.(check bool) "lambda2(C20) = 2" true (abs_float (l2 -. 2.) < 0.05);
  (* Odd cycles are not: the extreme is 2cos(pi (n-1)/n) in absolute
     value, about 1.978 for n = 21. *)
  let l2_odd = Spectral.lambda2 (Rumor_test_support.Classic.cycle 21) ~rng ~iters:600 in
  let expected = 2. *. cos (Float.pi *. 20. /. 21.) |> abs_float in
  Alcotest.(check bool)
    (Printf.sprintf "lambda2(C21) = %.3f vs %.3f" l2_odd expected)
    true
    (abs_float (l2_odd -. expected) < 0.05)

let test_lambda2_random_regular () =
  let rng = Rng.create 6 in
  let g =
    Rumor_gen.Regular.sample_connected ~rng ~n:512 ~d:6 Rumor_gen.Regular.Pairing
  in
  let l2 = Spectral.lambda2 g ~rng ~iters:120 in
  let bound = Spectral.ramanujan_bound 6 in
  Alcotest.(check bool)
    (Printf.sprintf "friedman bound: %.3f vs %.3f (+25%%)" l2 bound)
    true
    (l2 < bound *. 1.25);
  Alcotest.(check bool) "gap positive" true
    (Spectral.spectral_gap g ~rng ~iters:120 > 0.5)

let test_ramanujan_bound () =
  Alcotest.(check (float 1e-9)) "d=5" 4. (Spectral.ramanujan_bound 5);
  Alcotest.(check (float 1e-9)) "d=1" 0. (Spectral.ramanujan_bound 1)

let test_mixing_time_reasonable () =
  let rng = Rng.create 7 in
  let g =
    Rumor_gen.Regular.sample_connected ~rng ~n:256 ~d:8 Rumor_gen.Regular.Pairing
  in
  let mt = Spectral.mixing_time_estimate g ~rng ~eps:0.01 in
  Alcotest.(check bool) "finite and small" true (mt > 0. && mt < 100.)

(* --- Mixing --- *)

let test_mixing_sample_validation () =
  let g = triangle () in
  let rng = Rng.create 8 in
  Alcotest.check_raises "size too big" (Invalid_argument "Mixing.sample_set: size")
    (fun () -> ignore (Mixing.sample_set g ~rng ~size:3))

let test_mixing_discrepancy_regular () =
  let rng = Rng.create 9 in
  let g =
    Rumor_gen.Regular.sample_connected ~rng ~n:512 ~d:8 Rumor_gen.Regular.Pairing
  in
  let disc =
    Mixing.max_discrepancy g ~rng ~sizes:[ 32; 128; 256 ] ~per_size:10
  in
  (* Random sets have discrepancy well below lambda <= 2 sqrt(d-1). *)
  Alcotest.(check bool)
    (Printf.sprintf "discrepancy %.3f below eigenvalue bound" disc)
    true
    (disc < Spectral.ramanujan_bound 8 *. 1.5)

let test_mixing_sample_fields () =
  let rng = Rng.create 10 in
  let g = Rumor_test_support.Classic.complete 10 in
  let s = Mixing.sample_set g ~rng ~size:4 in
  Alcotest.(check int) "set size" 4 s.Mixing.set_size;
  (* In K10 every 4-set has boundary exactly 4 * 6 = 24. *)
  Alcotest.(check int) "K10 boundary" 24 s.Mixing.boundary;
  Alcotest.(check bool) "expected close" true
    (abs_float (s.Mixing.expected -. (9. *. 4. *. 6. /. 10.)) < 1e-9)

(* --- qcheck properties --- *)

let edge_list_gen =
  QCheck.Gen.(
    sized (fun size ->
        let n = max 2 (min 30 (size + 2)) in
        let edge = map2 (fun a b -> (a mod n, b mod n)) (int_bound 1000) (int_bound 1000) in
        map (fun es -> (n, es)) (list_size (int_bound 60) edge)))

let print_edge_list (n, es) =
  Printf.sprintf "n=%d edges=%s" n
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) es))

let arbitrary_edge_list = QCheck.make ~print:print_edge_list edge_list_gen

let prop_invariant =
  QCheck.Test.make ~count:200 ~name:"of_edges result satisfies invariant"
    arbitrary_edge_list
    (fun (n, es) -> Graph.invariant (Graph.of_edges ~n es))

let prop_degree_sum =
  QCheck.Test.make ~count:200 ~name:"degree sum = 2 * adj entries / 1"
    arbitrary_edge_list
    (fun (n, es) ->
      let g = Graph.of_edges ~n es in
      let sum = ref 0 in
      for v = 0 to n - 1 do
        sum := !sum + Graph.degree g v
      done;
      !sum = 2 * List.length es)

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"to_edges/of_edges preserves degrees"
    arbitrary_edge_list
    (fun (n, es) ->
      let g = Graph.of_edges ~n es in
      let g2 = Graph.of_edges ~n (Graph.to_edges g) in
      let ok = ref true in
      for v = 0 to n - 1 do
        if Graph.degree g v <> Graph.degree g2 v then ok := false
      done;
      !ok)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~count:100 ~name:"bfs distances obey edge relaxation"
    arbitrary_edge_list
    (fun (n, es) ->
      let g = Graph.of_edges ~n es in
      let d = Traversal.bfs g 0 in
      let ok = ref true in
      Graph.iter_edges g (fun u v ->
          if d.(u) >= 0 && d.(v) >= 0 && abs (d.(u) - d.(v)) > 1 then ok := false;
          if (d.(u) >= 0) <> (d.(v) >= 0) then ok := false);
      !ok)

(* Multigraphs for the connectivity differential: n from 0, up to
   2n edges drawn with replacement, so self-loops, parallel
   edges, isolated vertices and many components all occur. *)
let multigraph_gen =
  QCheck.Gen.(
    int_bound 40 >>= fun n ->
    if n = 0 then return (0, [])
    else
      let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
      map (fun es -> (n, es)) (list_size (int_bound (2 * n)) edge))

let prop_is_connected_matches_components =
  QCheck.Test.make ~count:500 ~name:"is_connected = components count <= 1"
    (QCheck.make ~print:print_edge_list multigraph_gen)
    (fun (n, es) ->
      let g = Graph.of_edges ~n es in
      Traversal.is_connected g = (snd (Traversal.components g) <= 1))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_invariant;
      prop_degree_sum;
      prop_roundtrip;
      prop_bfs_triangle_inequality;
      prop_is_connected_matches_components;
    ]

let () =
  Alcotest.run "rumor_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "of_edges basic" `Quick test_of_edges_basic;
          Alcotest.test_case "of_edges range" `Quick test_of_edges_range_check;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "isolated vertices" `Quick test_isolated_vertices;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "iter/fold neighbors" `Quick test_iter_fold_neighbors;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "self loops" `Quick test_self_loop_convention;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "is_regular" `Quick test_is_regular;
          Alcotest.test_case "to_edges roundtrip" `Quick test_to_edges_roundtrip;
          Alcotest.test_case "iter_edges count" `Quick test_iter_edges_count;
          Alcotest.test_case "invariant" `Quick test_invariant_holds;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "growth" `Quick test_builder_growth;
          Alcotest.test_case "snapshot" `Quick test_builder_snapshot_semantics;
          Alcotest.test_case "validation" `Quick test_builder_validation;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "bfs multi" `Quick test_bfs_multi;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "is_connected" `Quick test_is_connected;
          Alcotest.test_case "largest component" `Quick test_largest_component;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
          Alcotest.test_case "diameter cycle" `Quick test_diameter_cycle;
          Alcotest.test_case "avg distance complete" `Quick
            test_average_distance_complete;
          Alcotest.test_case "no allocation per vertex" `Quick
            test_traversal_allocation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "degree stats" `Quick test_degree_stats;
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
          Alcotest.test_case "triangles" `Quick test_triangles;
          Alcotest.test_case "clustering" `Quick test_clustering;
          Alcotest.test_case "global clustering" `Quick test_global_clustering;
          Alcotest.test_case "edge boundary" `Quick test_edge_boundary;
          Alcotest.test_case "conductance" `Quick test_conductance;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "lambda2 complete" `Quick test_lambda2_complete;
          Alcotest.test_case "lambda2 cycle" `Quick test_lambda2_cycle;
          Alcotest.test_case "lambda2 random regular" `Quick
            test_lambda2_random_regular;
          Alcotest.test_case "ramanujan bound" `Quick test_ramanujan_bound;
          Alcotest.test_case "mixing time" `Quick test_mixing_time_reasonable;
        ] );
      ( "mixing",
        [
          Alcotest.test_case "validation" `Quick test_mixing_sample_validation;
          Alcotest.test_case "regular discrepancy" `Quick
            test_mixing_discrepancy_regular;
          Alcotest.test_case "sample fields" `Quick test_mixing_sample_fields;
        ] );
      ("properties", qcheck_cases);
    ]
