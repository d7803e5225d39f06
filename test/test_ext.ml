(* Tests for the extension modules: median-counter termination [25],
   the multi-message runner, clock skew, size estimation, overlay
   bootstrap, small-world graphs and Welch's t-test. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Traversal = Rumor_test_support.Traversal
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Smallworld = Rumor_gen.Smallworld
module Engine = Rumor_sim.Engine
module Multi = Rumor_sim.Multi
module Topology = Rumor_test_support.Topology
module Params = Rumor_core.Params
module Algorithm = Rumor_core.Algorithm
module Baselines = Rumor_core.Baselines
module Median_counter = Rumor_core.Median_counter
module Run = Rumor_core.Run
module Overlay = Rumor_p2p.Overlay
module Estimator = Rumor_p2p.Estimator
module Bootstrap = Rumor_p2p.Bootstrap
module Summary = Rumor_test_support.Summary
module Ttest = Rumor_test_support.Ttest

(* --- Median counter --- *)

let mc_run ~seed ~graph ~n ~fanout =
  let rng = Rng.create seed in
  let config = Median_counter.default_config ~n ~fanout in
  Median_counter.run ~rng ~graph ~config ~source:0

let test_mc_complete_graph () =
  let n = 1024 in
  let r = mc_run ~seed:1 ~graph:(Classic.complete n) ~n ~fanout:1 in
  Alcotest.(check int) "all informed" n r.Median_counter.informed;
  Alcotest.(check bool) "self-terminates" true
    (r.Median_counter.quiescent_round <> None);
  Alcotest.(check bool) "completion before quiescence" true
    (match (r.Median_counter.completion_round, r.Median_counter.quiescent_round) with
    | Some c, Some q -> c <= q
    | _ -> false)

let test_mc_regular_graph () =
  for seed = 1 to 5 do
    let rng = Rng.create (100 + seed) in
    let n = 2048 in
    let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
    let r = mc_run ~seed ~graph:g ~n ~fanout:1 in
    Alcotest.(check int)
      (Printf.sprintf "seed %d informs all" seed)
      n r.Median_counter.informed;
    Alcotest.(check bool) "quiescent" true (r.Median_counter.quiescent_round <> None)
  done

let test_mc_message_bound () =
  (* Self-terminating with O(n log log n) messages: assert an explicit
     generous per-node cap scaling with log log n, far below log n at
     this size. *)
  let n = 4096 in
  let r = mc_run ~seed:7 ~graph:(Classic.complete n) ~n ~fanout:1 in
  let per_node = float_of_int r.Median_counter.transmissions /. float_of_int n in
  let loglog = Params.log2 (Params.log2 (float_of_int n)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f per node <= 20(1+loglog)" per_node)
    true
    (per_node <= 20. *. (1. +. loglog))

let test_mc_config_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Median_counter.default_config: n < 4")
    (fun () -> ignore (Median_counter.default_config ~n:2 ~fanout:1));
  Alcotest.check_raises "fanout"
    (Invalid_argument "Median_counter.default_config: fanout < 1") (fun () ->
      ignore (Median_counter.default_config ~n:16 ~fanout:0))

let test_mc_bad_source () =
  let g = Classic.complete 8 in
  let rng = Rng.create 1 in
  Alcotest.check_raises "source" (Invalid_argument "Median_counter.run: bad source")
    (fun () ->
      ignore
        (Median_counter.run ~rng ~graph:g
           ~config:(Median_counter.default_config ~n:8 ~fanout:1)
           ~source:9))

let test_mc_horizon_caps () =
  (* A disconnected graph can never complete; the run must still stop. *)
  let g = Graph.of_edges ~n:6 [ (0, 1); (2, 3); (4, 5) ] in
  let rng = Rng.create 2 in
  let config = Median_counter.default_config ~n:6 ~fanout:1 in
  let r = Median_counter.run ~rng ~graph:g ~config ~source:0 in
  Alcotest.(check bool) "stops" true (r.Median_counter.rounds <= config.Median_counter.horizon);
  Alcotest.(check bool) "did not inform isolated parts" true
    (r.Median_counter.informed <= 2)

(* --- Multi-message runner --- *)

let multi_run ?(fanout = 4) ~seed ~n ~messages () =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let params = Params.make ~fanout ~n_estimate:n ~d:8 () in
  Multi.run ~rng
    ~topology:(Topology.of_graph g)
    ~protocol:(Algorithm.make params) ~messages ()

let test_multi_single_equals_engine_shape () =
  let r =
    multi_run ~seed:3 ~n:1024 ~messages:[ { Multi.source = 0; created = 0 } ] ()
  in
  Alcotest.(check bool) "complete" true (Multi.all_complete r);
  Alcotest.(check int) "one message" 1 (Array.length r.Multi.messages)

let test_multi_all_complete () =
  let messages =
    List.init 8 (fun i -> { Multi.source = i * 100; created = 0 })
  in
  let r = multi_run ~seed:4 ~n:1024 ~messages () in
  Alcotest.(check bool) "all rumors reach everyone" true (Multi.all_complete r);
  Array.iter
    (fun m ->
      Alcotest.(check bool) "completion round present" true
        (m.Multi.completion_round <> None))
    r.Multi.messages

let test_multi_channels_shared () =
  (* 8 rumors over shared channels must open far fewer channels than 8
     independent runs: at most ~1x the single-run channel count per
     round times the (slightly longer) schedule. *)
  let one =
    multi_run ~seed:5 ~n:1024 ~messages:[ { Multi.source = 0; created = 0 } ] ()
  in
  let eight =
    multi_run ~seed:5 ~n:1024
      ~messages:(List.init 8 (fun i -> { Multi.source = i; created = 0 }))
      ()
  in
  let per_round r = float_of_int r.Multi.channels /. float_of_int r.Multi.rounds in
  Alcotest.(check bool) "channels per round unchanged" true
    (abs_float (per_round one -. per_round eight) < 1.);
  Alcotest.(check bool) "8 rumors complete" true (Multi.all_complete eight)

let test_multi_staggered_creation () =
  let messages =
    [
      { Multi.source = 0; created = 0 };
      { Multi.source = 500; created = 5 };
      { Multi.source = 900; created = 10 };
    ]
  in
  let r = multi_run ~seed:6 ~n:1024 ~messages () in
  Alcotest.(check bool) "all complete" true (Multi.all_complete r);
  (* A later rumor cannot complete earlier than proportionally later. *)
  (match
     ( r.Multi.messages.(0).Multi.completion_round,
       r.Multi.messages.(2).Multi.completion_round )
   with
  | Some c0, Some c2 ->
      Alcotest.(check bool) "staggered completion order" true (c2 > c0)
  | _ -> Alcotest.fail "missing completion");
  ()

let test_multi_validation () =
  Alcotest.check_raises "no messages" (Invalid_argument "Multi.run: no messages")
    (fun () -> ignore (multi_run ~seed:7 ~n:64 ~messages:[] ()));
  Alcotest.check_raises "bad source" (Invalid_argument "Multi.run: bad source")
    (fun () ->
      ignore
        (multi_run ~seed:8 ~n:64
           ~messages:[ { Multi.source = 70; created = 0 } ]
           ()));
  Alcotest.check_raises "negative creation"
    (Invalid_argument "Multi.run: negative creation time") (fun () ->
      ignore
        (multi_run ~seed:9 ~n:64
           ~messages:[ { Multi.source = 0; created = -1 } ]
           ()))

let test_multi_per_message_cost_matches_single () =
  let one =
    multi_run ~seed:10 ~n:2048 ~messages:[ { Multi.source = 0; created = 0 } ] ()
  in
  let four =
    multi_run ~seed:10 ~n:2048
      ~messages:(List.init 4 (fun i -> { Multi.source = 200 * i; created = 0 }))
      ()
  in
  let single_tx = one.Multi.messages.(0).Multi.transmissions in
  Array.iter
    (fun m ->
      let ratio =
        float_of_int m.Multi.transmissions /. float_of_int single_tx
      in
      Alcotest.(check bool)
        (Printf.sprintf "per-message tx within 25%% (ratio %.2f)" ratio)
        true
        (ratio > 0.75 && ratio < 1.25))
    four.Multi.messages

(* --- Clock skew --- *)

let test_skew_zero_is_default () =
  let go skew =
    let rng = Rng.create 11 in
    let g = Regular.sample_connected ~rng ~n:512 ~d:8 Regular.Pairing in
    let params = Params.make ~n_estimate:512 ~d:8 () in
    Engine.run ?skew ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Algorithm.make params) ~sources:[ 0 ] ()
  in
  let a = go None and b = go (Some (fun _ -> 0)) in
  Alcotest.(check int) "identical transmissions" (Engine.transmissions a)
    (Engine.transmissions b)

let test_skew_small_still_completes () =
  let rng = Rng.create 12 in
  let n = 2048 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let offsets = Array.init n (fun _ -> Rng.int rng 3) in
  let params = Params.make ~alpha:2.0 ~n_estimate:n ~d:8 () in
  let res =
    Engine.run ~skew:(fun v -> offsets.(v)) ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Algorithm.make params) ~sources:[ 0 ] ()
  in
  Alcotest.(check bool) "completes under +-2 rounds of skew" true
    (Engine.success res)

let test_skew_delays_unstarted_nodes () =
  (* All nodes except the source start their clocks 500 rounds late:
     until round 500 only the source's own 10 pushes can inform anyone;
     the late nodes then wake up and run their schedule. *)
  let g = Classic.complete 64 in
  let rng = Rng.create 13 in
  let res =
    Engine.run ~collect_trace:true
      ~skew:(fun v -> if v = 0 then 0 else 500)
      ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.push ~horizon:10 ())
      ~sources:[ 0 ] ()
  in
  match res.Engine.trace with
  | None -> Alcotest.fail "trace missing"
  | Some t ->
      let at_500 = (Rumor_test_support.Trace.get t 499).Rumor_test_support.Trace.informed in
      Alcotest.(check bool)
        (Printf.sprintf "only source pushes before clocks start (%d)" at_500)
        true (at_500 <= 11);
      Alcotest.(check bool) "late clocks spread afterwards" true
        (res.Engine.informed > at_500)

(* --- Estimator --- *)

let test_estimator_accuracy () =
  let rng = Rng.create 14 in
  let n = 1024 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let o = Overlay.of_graph ~capacity:n g in
  let est = Estimator.create ~rng ~overlay:o ~k:400 in
  let rounds = Estimator.run ~rng est in
  Alcotest.(check bool) "converged quickly" true (rounds < 200);
  let err = Estimator.worst_error est in
  Alcotest.(check bool)
    (Printf.sprintf "worst error %.2f within factor 2" err)
    true (err < 2.)

let test_estimator_consensus () =
  (* After convergence every node holds the same estimate. *)
  let rng = Rng.create 15 in
  let n = 256 in
  let g = Regular.sample_connected ~rng ~n ~d:6 Regular.Pairing in
  let o = Overlay.of_graph ~capacity:n g in
  let est = Estimator.create ~rng ~overlay:o ~k:64 in
  ignore (Estimator.run ~rng est);
  let e0 = Estimator.estimate est ~node:0 in
  for v = 1 to n - 1 do
    Alcotest.(check (float 1e-9)) "same estimate everywhere" e0
      (Estimator.estimate est ~node:v)
  done

let test_estimator_validation () =
  let rng = Rng.create 16 in
  let o = Overlay.of_graph ~capacity:8 (Classic.complete 8) in
  Alcotest.check_raises "k" (Invalid_argument "Estimator.create: k < 1")
    (fun () -> ignore (Estimator.create ~rng ~overlay:o ~k:0))

let test_estimator_round_reports_changes () =
  let rng = Rng.create 17 in
  let o = Overlay.of_graph ~capacity:16 (Classic.complete 16) in
  let est = Estimator.create ~rng ~overlay:o ~k:8 in
  let first = Estimator.round ~rng est in
  Alcotest.(check bool) "first round changes vectors" true (first > 0);
  ignore (Estimator.run ~rng est);
  Alcotest.(check int) "converged round changes nothing" 0
    (Estimator.round ~rng est)

(* --- Bootstrap --- *)

let test_bootstrap_grows_regular () =
  let rng = Rng.create 18 in
  let o = Bootstrap.grow ~rng ~n:200 ~d:4 ~capacity:256 () in
  Alcotest.(check int) "n nodes" 200 (Overlay.node_count o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o);
  let q = Bootstrap.quality ~rng ~d:4 o in
  Alcotest.(check bool) "4-regular" true q.Bootstrap.regular;
  Alcotest.(check bool) "connected" true q.Bootstrap.connected

let test_bootstrap_expansion () =
  let rng = Rng.create 19 in
  let o = Bootstrap.grow ~rng ~n:400 ~d:6 ~capacity:512 () in
  let q = Bootstrap.quality ~rng ~d:6 o in
  (* The grown overlay should mix nearly as well as a configuration-
     model sample: lambda2 within 40% of the Ramanujan benchmark. *)
  Alcotest.(check bool)
    (Printf.sprintf "lambda2 %.2f near benchmark %.2f" q.Bootstrap.lambda2
       q.Bootstrap.ramanujan)
    true
    (q.Bootstrap.lambda2 < q.Bootstrap.ramanujan *. 1.4)

let test_bootstrap_validation () =
  let rng = Rng.create 20 in
  Alcotest.check_raises "odd d"
    (Invalid_argument "Bootstrap.grow: d must be positive and even") (fun () ->
      ignore (Bootstrap.grow ~rng ~n:10 ~d:3 ~capacity:10 ()));
  Alcotest.check_raises "n too small" (Invalid_argument "Bootstrap.grow: n < d + 1")
    (fun () -> ignore (Bootstrap.grow ~rng ~n:4 ~d:4 ~capacity:10 ()));
  Alcotest.check_raises "capacity" (Invalid_argument "Bootstrap.grow: capacity < n")
    (fun () -> ignore (Bootstrap.grow ~rng ~n:10 ~d:4 ~capacity:5 ()))

let test_bootstrap_broadcast_works () =
  (* End-to-end: a bootstrapped overlay supports the paper's algorithm. *)
  let rng = Rng.create 21 in
  let n = 512 in
  let o = Bootstrap.grow ~rng ~n ~d:8 ~capacity:n () in
  let params = Params.make ~alpha:2.0 ~n_estimate:n ~d:8 () in
  let res =
    Engine.run ~rng
      ~topology:(Overlay.to_topology o)
      ~protocol:(Rumor_core.Algorithm.make params)
      ~sources:[ Overlay.random_node o rng ]
      ()
  in
  Alcotest.(check bool) "broadcast completes" true (Engine.success res)

(* --- Small world --- *)

let test_smallworld_beta0_is_lattice () =
  let rng = Rng.create 22 in
  let g = Smallworld.sample ~rng ~n:50 ~k:2 ~beta:0. in
  Alcotest.(check (option int)) "4-regular ring lattice" (Some 4)
    (Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* Lattice structure: 0 adjacent to 1, 2, 49, 48. *)
  List.iter
    (fun w -> Alcotest.(check bool) "lattice edge" true (Graph.mem_edge g 0 w))
    [ 1; 2; 48; 49 ]

let test_smallworld_edge_count () =
  let rng = Rng.create 23 in
  List.iter
    (fun beta ->
      let g = Smallworld.sample ~rng ~n:100 ~k:3 ~beta in
      Alcotest.(check int) "n*k edges" 300 (Graph.m g))
    [ 0.; 0.3; 1. ]

let test_smallworld_rewiring_shrinks_diameter () =
  let rng = Rng.create 24 in
  let lattice = Smallworld.sample ~rng ~n:400 ~k:2 ~beta:0. in
  let rewired = Smallworld.sample ~rng ~n:400 ~k:2 ~beta:0.3 in
  let d0 = Traversal.diameter_lower_bound lattice ~rng ~samples:3 in
  let d1 = Traversal.diameter_lower_bound rewired ~rng ~samples:3 in
  Alcotest.(check bool)
    (Printf.sprintf "diameter %d -> %d" d0 d1)
    true (d1 * 2 < d0)

let test_smallworld_no_self_loops () =
  let rng = Rng.create 25 in
  let g = Smallworld.sample ~rng ~n:200 ~k:3 ~beta:1. in
  Alcotest.(check int) "no self loops" 0 (Graph.count_self_loops g)

let test_smallworld_validation () =
  let rng = Rng.create 26 in
  Alcotest.check_raises "k" (Invalid_argument "Smallworld.sample: k < 1")
    (fun () -> ignore (Smallworld.sample ~rng ~n:10 ~k:0 ~beta:0.5));
  Alcotest.check_raises "n" (Invalid_argument "Smallworld.sample: n <= 2k")
    (fun () -> ignore (Smallworld.sample ~rng ~n:4 ~k:2 ~beta:0.5));
  Alcotest.check_raises "beta"
    (Invalid_argument "Smallworld.sample: beta out of range") (fun () ->
      ignore (Smallworld.sample ~rng ~n:10 ~k:2 ~beta:1.5))

(* --- Welch t-test --- *)

let test_normal_cdf_values () =
  let close a b = abs_float (a -. b) < 1e-4 in
  Alcotest.(check bool) "cdf(0)" true (close (Ttest.normal_cdf 0.) 0.5);
  Alcotest.(check bool) "cdf(1.96)" true (close (Ttest.normal_cdf 1.96) 0.975);
  Alcotest.(check bool) "cdf(-1.96)" true (close (Ttest.normal_cdf (-1.96)) 0.025);
  Alcotest.(check bool) "cdf(3)" true (close (Ttest.normal_cdf 3.) 0.99865)

let test_ttest_same_distribution () =
  let rng = Rng.create 27 in
  let draw () =
    Summary.of_list
      (List.init 50 (fun _ -> Rumor_test_support.Dist.normal rng ~mu:10. ~sigma:2.))
  in
  let o = Ttest.welch (draw ()) (draw ()) in
  Alcotest.(check bool)
    (Printf.sprintf "same distribution not significant (p=%.3f)" o.Ttest.p_value)
    false o.Ttest.significant

let test_ttest_different_means () =
  let rng = Rng.create 28 in
  let draw mu =
    Summary.of_list
      (List.init 50 (fun _ -> Rumor_test_support.Dist.normal rng ~mu ~sigma:1.))
  in
  let o = Ttest.welch (draw 0.) (draw 5.) in
  Alcotest.(check bool) "clearly different" true o.Ttest.significant;
  Alcotest.(check bool) "p tiny" true (o.Ttest.p_value < 1e-6);
  Alcotest.(check bool) "negative t for smaller first mean" true (o.Ttest.t_stat < 0.)

let test_ttest_small_samples () =
  (* Small dof exercises the t-distribution branch. *)
  let a = Summary.of_list [ 1.; 2.; 3.; 4. ] in
  let b = Summary.of_list [ 1.5; 2.5; 3.5; 4.5 ] in
  let o = Ttest.welch a b in
  Alcotest.(check bool) "dof small" true (o.Ttest.dof < 30.);
  Alcotest.(check bool) "overlapping samples not significant" false
    o.Ttest.significant;
  Alcotest.(check bool) "p in range" true (o.Ttest.p_value >= 0. && o.Ttest.p_value <= 1.)

let test_ttest_identical_constants () =
  let a = Summary.of_list [ 2.; 2.; 2. ] in
  let o = Ttest.welch a a in
  Alcotest.(check bool) "identical constants p=1" true (o.Ttest.p_value = 1.)

let test_ttest_validation () =
  let tiny = Summary.of_list [ 1. ] in
  let ok = Summary.of_list [ 1.; 2. ] in
  Alcotest.check_raises "sample size"
    (Invalid_argument "Ttest.welch: need >= 2 points per sample") (fun () ->
      ignore (Ttest.welch tiny ok))

(* --- qcheck properties --- *)

let prop_smallworld_degree_sum =
  QCheck.Test.make ~count:50 ~name:"small world keeps n*k edges for any beta"
    QCheck.(triple small_int (int_range 7 60) (float_bound_inclusive 1.))
    (fun (seed, n, beta) ->
      let rng = Rng.create seed in
      let g = Smallworld.sample ~rng ~n ~k:2 ~beta in
      Graph.m g = 2 * n)

let prop_ttest_symmetry =
  QCheck.Test.make ~count:50 ~name:"welch t is antisymmetric"
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let rng1 = Rng.create (s1 + 1) and rng2 = Rng.create (s2 + 100000) in
      let a =
        Summary.of_list (List.init 10 (fun _ -> Rumor_test_support.Rng.float rng1))
      in
      let b =
        Summary.of_list
          (List.init 10 (fun _ -> 2. *. Rumor_test_support.Rng.float rng2))
      in
      let ab = Ttest.welch a b and ba = Ttest.welch b a in
      abs_float (ab.Ttest.t_stat +. ba.Ttest.t_stat) < 1e-9
      && abs_float (ab.Ttest.p_value -. ba.Ttest.p_value) < 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_smallworld_degree_sum; prop_ttest_symmetry ]

let () =
  Alcotest.run "extensions"
    [
      ( "median-counter",
        [
          Alcotest.test_case "complete graph" `Quick test_mc_complete_graph;
          Alcotest.test_case "regular graph" `Slow test_mc_regular_graph;
          Alcotest.test_case "message bound" `Quick test_mc_message_bound;
          Alcotest.test_case "config validation" `Quick test_mc_config_validation;
          Alcotest.test_case "bad source" `Quick test_mc_bad_source;
          Alcotest.test_case "horizon caps" `Quick test_mc_horizon_caps;
        ] );
      ( "multi-message",
        [
          Alcotest.test_case "single message" `Quick
            test_multi_single_equals_engine_shape;
          Alcotest.test_case "all complete" `Quick test_multi_all_complete;
          Alcotest.test_case "channels shared" `Quick test_multi_channels_shared;
          Alcotest.test_case "staggered creation" `Quick test_multi_staggered_creation;
          Alcotest.test_case "validation" `Quick test_multi_validation;
          Alcotest.test_case "per-message cost" `Slow
            test_multi_per_message_cost_matches_single;
        ] );
      ( "clock-skew",
        [
          Alcotest.test_case "zero skew default" `Quick test_skew_zero_is_default;
          Alcotest.test_case "small skew completes" `Quick
            test_skew_small_still_completes;
          Alcotest.test_case "unstarted stay silent" `Quick
            test_skew_delays_unstarted_nodes;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "accuracy" `Quick test_estimator_accuracy;
          Alcotest.test_case "consensus" `Quick test_estimator_consensus;
          Alcotest.test_case "validation" `Quick test_estimator_validation;
          Alcotest.test_case "round changes" `Quick test_estimator_round_reports_changes;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "grows regular" `Quick test_bootstrap_grows_regular;
          Alcotest.test_case "expansion" `Quick test_bootstrap_expansion;
          Alcotest.test_case "validation" `Quick test_bootstrap_validation;
          Alcotest.test_case "broadcast works" `Quick test_bootstrap_broadcast_works;
        ] );
      ( "small-world",
        [
          Alcotest.test_case "beta 0 lattice" `Quick test_smallworld_beta0_is_lattice;
          Alcotest.test_case "edge count" `Quick test_smallworld_edge_count;
          Alcotest.test_case "rewiring shrinks diameter" `Quick
            test_smallworld_rewiring_shrinks_diameter;
          Alcotest.test_case "no self loops" `Quick test_smallworld_no_self_loops;
          Alcotest.test_case "validation" `Quick test_smallworld_validation;
        ] );
      ( "ttest",
        [
          Alcotest.test_case "normal cdf" `Quick test_normal_cdf_values;
          Alcotest.test_case "same distribution" `Quick test_ttest_same_distribution;
          Alcotest.test_case "different means" `Quick test_ttest_different_means;
          Alcotest.test_case "small samples" `Quick test_ttest_small_samples;
          Alcotest.test_case "identical constants" `Quick test_ttest_identical_constants;
          Alcotest.test_case "validation" `Quick test_ttest_validation;
        ] );
      ("properties", qcheck_cases);
    ]
