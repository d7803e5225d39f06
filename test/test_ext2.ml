(* Tests for the second extension wave: the asynchronous engine, random
   walks, graph serialisation, walk-based local joins, trace export and
   sparklines. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Walk = Rumor_test_support.Walk
module Io = Rumor_graph.Io
module Topology = Rumor_sim.Topology
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Async = Rumor_sim.Async
module Trace = Rumor_test_support.Trace
module Params = Rumor_core.Params
module Algorithm = Rumor_core.Algorithm
module Baselines = Rumor_core.Baselines
module Run = Rumor_core.Run
module Overlay = Rumor_p2p.Overlay
module Churn = Rumor_test_support.Churn
module Sparkline = Rumor_test_support.Sparkline

(* --- Async engine --- *)

let test_async_push_completes () =
  let rng = Rng.create 1 in
  let res =
    Async.run ~rng ~topology:(Topology.of_graph (Classic.complete 256))
      ~protocol:(Baselines.push ~horizon:100 ())
      ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "all informed" 256 res.Async.informed;
  Alcotest.(check bool) "completion time recorded" true
    (res.Async.completion_time <> None)

let test_async_time_logarithmic () =
  (* Async push on K_n completes in Theta(log n) time units. *)
  let time_for n =
    let rng = Rng.create 2 in
    let res =
      Async.run ~rng ~topology:(Topology.of_graph (Classic.complete n))
        ~protocol:(Baselines.push ~horizon:200 ())
        ~sources:[ 0 ] ()
    in
    match res.Async.completion_time with
    | Some t -> t
    | None -> Alcotest.fail "did not complete"
  in
  let t256 = time_for 256 and t4096 = time_for 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "sub-linear growth (%.1f -> %.1f)" t256 t4096)
    true
    (t4096 < 2.5 *. t256)

let test_async_algorithm_on_regular () =
  (* The paper's schedule survives asynchrony (clocks shared for
     timestamps, not for actions) with a widened constant. *)
  let rng = Rng.create 3 in
  let n = 2048 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let params = Params.make ~alpha:3.0 ~n_estimate:n ~d:8 () in
  let res =
    Async.run ~rng ~topology:(Topology.of_graph g)
      ~protocol:(Algorithm.make params) ~sources:[ 0 ] ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "nearly all informed (%d/%d)" res.Async.informed n)
    true
    (res.Async.informed >= n - n / 100)

let test_async_activation_rate () =
  (* Activations per unit time ~ n. *)
  let rng = Rng.create 4 in
  let n = 512 in
  let res =
    Async.run ~rng ~topology:(Topology.of_graph (Classic.cycle n))
      ~protocol:(Baselines.push ~horizon:10 ())
      ~sources:[ 0 ] ()
  in
  let rate = float_of_int res.Async.activations /. res.Async.time in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f near n" rate)
    true
    (abs_float (rate -. float_of_int n) < 0.2 *. float_of_int n)

let test_async_validation () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "no sources" (Invalid_argument "Async.run: no sources")
    (fun () ->
      ignore
        (Async.run ~rng ~topology:(Topology.of_graph (Classic.complete 4))
           ~protocol:(Baselines.push ~horizon:5 ())
           ~sources:[] ()));
  Alcotest.check_raises "bad source" (Invalid_argument "Async.run: bad source")
    (fun () ->
      ignore
        (Async.run ~rng ~topology:(Topology.of_graph (Classic.complete 4))
           ~protocol:(Baselines.push ~horizon:5 ())
           ~sources:[ 7 ] ()))

let test_async_total_loss () =
  let rng = Rng.create 6 in
  let fault = Rumor_sim.Fault.make ~link_loss:1. () in
  let res =
    Async.run ~fault ~rng ~topology:(Topology.of_graph (Classic.complete 64))
      ~protocol:(Baselines.push ~horizon:20 ())
      ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "nothing spreads" 1 res.Async.informed

let test_async_deterministic () =
  let go () =
    let rng = Rng.create 7 in
    let res =
      Async.run ~rng ~topology:(Topology.of_graph (Classic.complete 128))
        ~protocol:(Baselines.push ~horizon:50 ())
        ~sources:[ 0 ] ()
    in
    (res.Async.activations, res.Async.transmissions, res.Async.completion_time)
  in
  Alcotest.(check bool) "replay identical" true (go () = go ())

(* --- Random walks --- *)

let test_walk_step_adjacent () =
  let g = Classic.cycle 10 in
  let rng = Rng.create 8 in
  for _ = 1 to 100 do
    let w = Walk.step rng g 3 in
    Alcotest.(check bool) "adjacent" true (w = 2 || w = 4)
  done

let test_walk_step_isolated () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let rng = Rng.create 9 in
  Alcotest.check_raises "isolated" (Invalid_argument "Walk.step: isolated vertex")
    (fun () -> ignore (Walk.step rng g 2))

let test_walk_endpoint_length_zero () =
  let g = Classic.cycle 10 in
  let rng = Rng.create 10 in
  Alcotest.(check int) "stays put" 7 (Walk.endpoint rng g ~start:7 ~length:0)

let test_walk_path_shape () =
  let g = Classic.complete 8 in
  let rng = Rng.create 11 in
  let p = Walk.path rng g ~start:0 ~length:20 in
  Alcotest.(check int) "length+1 vertices" 21 (Array.length p);
  Alcotest.(check int) "starts at start" 0 p.(0);
  for i = 1 to 20 do
    Alcotest.(check bool) "consecutive adjacent" true
      (Graph.mem_edge g p.(i - 1) p.(i))
  done

let test_walk_parity_on_bipartite () =
  (* On an even cycle the walk respects bipartition parity. *)
  let g = Classic.cycle 8 in
  let rng = Rng.create 12 in
  let e = Walk.endpoint rng g ~start:0 ~length:10 in
  Alcotest.(check int) "even length, even side" 0 (e mod 2)

let test_walk_mixes_to_uniform () =
  let rng = Rng.create 13 in
  let g = Regular.sample_connected ~rng ~n:256 ~d:8 Regular.Pairing in
  let counts = Walk.endpoint_counts rng g ~start:0 ~length:50 ~samples:20_000 in
  let tv = Walk.total_variation_from_uniform counts in
  Alcotest.(check bool)
    (Printf.sprintf "TV distance %.3f small" tv)
    true (tv < 0.12)

let test_walk_short_walk_not_uniform () =
  let rng = Rng.create 14 in
  let g = Classic.cycle 100 in
  let counts = Walk.endpoint_counts rng g ~start:0 ~length:3 ~samples:5_000 in
  let tv = Walk.total_variation_from_uniform counts in
  Alcotest.(check bool) "short walk on cycle far from uniform" true (tv > 0.5)

let test_walk_cover () =
  let rng = Rng.create 15 in
  let g = Classic.complete 32 in
  (match Walk.cover_steps rng g ~start:0 ~limit:10_000 with
  | Some steps ->
      (* Coupon collector: ~ n ln n = 111. *)
      Alcotest.(check bool)
        (Printf.sprintf "cover in %d steps" steps)
        true
        (steps > 31 && steps < 1_000)
  | None -> Alcotest.fail "did not cover K32 in 10k steps");
  Alcotest.(check bool) "limit respected" true
    (Walk.cover_steps rng (Classic.cycle 100) ~start:0 ~limit:5 = None)

let test_walk_tv_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Walk.total_variation_from_uniform: empty") (fun () ->
      ignore (Walk.total_variation_from_uniform [||]));
  Alcotest.check_raises "no samples"
    (Invalid_argument "Walk.total_variation_from_uniform: no samples") (fun () ->
      ignore (Walk.total_variation_from_uniform [| 0; 0 |]))

(* --- Graph serialisation --- *)

let test_io_roundtrip_basic () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 2); (3, 4); (0, 1) ] in
  let g2 = Io.of_string (Io.to_string g) in
  Alcotest.(check int) "n" (Graph.n g) (Graph.n g2);
  Alcotest.(check int) "m" (Graph.m g) (Graph.m g2);
  for v = 0 to 4 do
    Alcotest.(check int) "degree" (Graph.degree g v) (Graph.degree g2 v)
  done

let test_io_empty_graph () =
  let g = Graph.of_edges ~n:0 [] in
  let g2 = Io.of_string (Io.to_string g) in
  Alcotest.(check int) "empty n" 0 (Graph.n g2)

let test_io_header_errors () =
  let expect_failure s =
    match Io.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected parse failure"
  in
  expect_failure "";
  expect_failure "not-a-graph 1 3 0\n";
  expect_failure "rumor-graph 99 3 0\n";
  expect_failure "rumor-graph 1 -1 0\n";
  expect_failure "rumor-graph 1 3\n"

let test_io_body_errors () =
  let expect_failure s =
    match Io.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected parse failure"
  in
  expect_failure "rumor-graph 1 3 1\n0 5\n";
  expect_failure "rumor-graph 1 3 1\n0\n";
  expect_failure "rumor-graph 1 3 1\nzero one\n";
  (* count mismatch *)
  expect_failure "rumor-graph 1 3 2\n0 1\n"

let test_io_file_roundtrip () =
  let rng = Rng.create 16 in
  let g = Regular.sample ~rng ~n:64 ~d:4 Regular.Pairing in
  let path = Filename.temp_file "rumor" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.to_file path g;
      let g2 = Io.of_file path in
      Alcotest.(check int) "same edges" (Graph.m g) (Graph.m g2);
      Alcotest.(check bool) "still 4-regular" true (Graph.is_regular g2 = Some 4))

(* --- Walk-based local join --- *)

let test_join_local_preserves_regularity () =
  let rng = Rng.create 17 in
  let g = Regular.sample_connected ~rng ~n:64 ~d:4 Regular.Pairing in
  let o = Overlay.of_graph ~capacity:80 g in
  let contact = Overlay.random_node o rng in
  let fresh = Churn.join_local o ~rng ~d:4 ~contact ~walk_length:8 in
  Alcotest.(check int) "newcomer degree" 4 (Overlay.degree o fresh);
  for v = 0 to 79 do
    if Overlay.is_alive o v then
      Alcotest.(check int) "still 4-regular" 4 (Overlay.degree o v)
  done;
  Alcotest.(check bool) "invariant" true (Overlay.invariant o)

let test_join_local_many () =
  let rng = Rng.create 18 in
  let g = Regular.sample_connected ~rng ~n:32 ~d:4 Regular.Pairing in
  let o = Overlay.of_graph ~capacity:128 g in
  for _ = 1 to 64 do
    let contact = Overlay.random_node o rng in
    ignore (Churn.join_local o ~rng ~d:4 ~contact ~walk_length:6)
  done;
  Alcotest.(check int) "96 nodes" 96 (Overlay.node_count o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o);
  for v = 0 to 127 do
    if Overlay.is_alive o v then
      Alcotest.(check int) "regular" 4 (Overlay.degree o v)
  done

let test_join_local_validation () =
  let rng = Rng.create 19 in
  let o = Overlay.of_graph ~capacity:16 (Classic.cycle 8) in
  Alcotest.check_raises "odd d"
    (Invalid_argument "Churn.join_local: d must be positive and even") (fun () ->
      ignore (Churn.join_local o ~rng ~d:3 ~contact:0 ~walk_length:4));
  Alcotest.check_raises "walk length"
    (Invalid_argument "Churn.join_local: walk_length < 1") (fun () ->
      ignore (Churn.join_local o ~rng ~d:2 ~contact:0 ~walk_length:0));
  Alcotest.check_raises "dead contact"
    (Invalid_argument "Churn.join_local: dead contact") (fun () ->
      ignore (Churn.join_local o ~rng ~d:2 ~contact:12 ~walk_length:4))

(* --- Trace export --- *)

let test_trace_csv () =
  let t = Trace.create () in
  Trace.add t
    { Trace.round = 1; informed = 2; newly = 1; push_tx = 4; pull_tx = 0;
      channels = 8 };
  Trace.add t
    { Trace.round = 2; informed = 5; newly = 3; push_tx = 8; pull_tx = 1;
      channels = 8 };
  let csv = Trace.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header"
    "round,informed,newly,push_tx,pull_tx,channels" (List.hd lines);
  Alcotest.(check string) "row 2" "2,5,3,8,1,8" (List.nth lines 2)

let test_trace_informed_series () =
  let t = Trace.create () in
  for r = 1 to 5 do
    Trace.add t
      { Trace.round = r; informed = r * r; newly = 0; push_tx = 0; pull_tx = 0;
        channels = 0 }
  done;
  Alcotest.(check (array (float 1e-9))) "series"
    [| 1.; 4.; 9.; 16.; 25. |]
    (Trace.informed_series t)

(* --- Sparkline --- *)

let utf8_glyph_count s =
  (* Count codepoints by skipping UTF-8 continuation bytes. *)
  let count = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr count) s;
  !count

let test_sparkline_shape () =
  let s = Sparkline.render [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "one glyph per value" 4 (utf8_glyph_count s);
  Alcotest.(check string) "empty input" "" (Sparkline.render [||])

let test_sparkline_monotone () =
  (* Increasing data renders with the lowest glyph first, highest last. *)
  let s = Sparkline.render [| 0.; 100. |] in
  Alcotest.(check bool) "starts low ends high" true
    (String.length s = 6
    && String.sub s 0 3 = "\xe2\x96\x81"
    && String.sub s 3 3 = "\xe2\x96\x88")

let test_sparkline_constant () =
  let s = Sparkline.render [| 5.; 5.; 5. |] in
  Alcotest.(check int) "renders" 3 (utf8_glyph_count s)

let test_sparkline_nan () =
  let s = Sparkline.render [| 1.; nan; 2. |] in
  Alcotest.(check bool) "nan becomes space" true (String.contains s ' ')

let test_sparkline_ints_and_scale () =
  let s = Sparkline.render_ints [| 1; 2; 3 |] in
  Alcotest.(check int) "ints render" 3 (utf8_glyph_count s);
  let ws = Sparkline.with_scale [| 1.; 3. |] in
  Alcotest.(check bool) "scale includes bounds" true
    (String.length ws > 0 && ws.[0] = '1')

(* --- End to end: trace a run, export, sparkline it --- *)

let test_trace_pipeline () =
  let rng = Rng.create 20 in
  let g = Regular.sample_connected ~rng ~n:512 ~d:8 Regular.Pairing in
  let params = Params.make ~n_estimate:512 ~d:8 () in
  let res =
    Run.once ~collect_trace:true ~rng ~graph:g
      ~protocol:(Algorithm.make params) ~source:0 ()
  in
  match res.Rumor_sim.Engine.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      let series = Trace.informed_series t in
      Alcotest.(check bool) "series nonempty" true (Array.length series > 0);
      Alcotest.(check bool) "csv nonempty" true (String.length (Trace.to_csv t) > 0);
      Alcotest.(check int) "sparkline matches series length"
        (Array.length series)
        (utf8_glyph_count (Sparkline.render series))

(* --- qcheck properties --- *)

let prop_io_roundtrip =
  QCheck.Test.make ~count:100 ~name:"graph serialisation round-trips"
    QCheck.(pair small_int (int_range 0 40))
    (fun (seed, extra) ->
      let rng = Rng.create seed in
      let n = 5 + (extra mod 20) in
      let edges =
        List.init extra (fun _ -> (Rng.int rng n, Rng.int rng n))
      in
      let g = Graph.of_edges ~n edges in
      let g2 = Io.of_string (Io.to_string g) in
      Graph.n g = Graph.n g2
      && Graph.m g = Graph.m g2
      && List.for_all
           (fun v -> Graph.degree g v = Graph.degree g2 v)
           (List.init n (fun i -> i)))

let prop_walk_stays_in_component =
  QCheck.Test.make ~count:50 ~name:"walks never leave the component"
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, length) ->
      let rng = Rng.create seed in
      let g = Graph.of_edges ~n:8 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
      let e = Walk.endpoint rng g ~start:0 ~length in
      e <= 2)

let prop_sparkline_glyph_count =
  QCheck.Test.make ~count:100 ~name:"sparkline emits one glyph per value"
    QCheck.(array_of_size Gen.(int_range 0 40) (float_bound_exclusive 100.))
    (fun data -> utf8_glyph_count (Sparkline.render data) = Array.length data)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_io_roundtrip; prop_walk_stays_in_component; prop_sparkline_glyph_count ]

let () =
  Alcotest.run "extensions-2"
    [
      ( "async",
        [
          Alcotest.test_case "push completes" `Quick test_async_push_completes;
          Alcotest.test_case "time logarithmic" `Quick test_async_time_logarithmic;
          Alcotest.test_case "algorithm on regular" `Slow
            test_async_algorithm_on_regular;
          Alcotest.test_case "activation rate" `Quick test_async_activation_rate;
          Alcotest.test_case "validation" `Quick test_async_validation;
          Alcotest.test_case "total loss" `Quick test_async_total_loss;
          Alcotest.test_case "deterministic" `Quick test_async_deterministic;
        ] );
      ( "walk",
        [
          Alcotest.test_case "step adjacent" `Quick test_walk_step_adjacent;
          Alcotest.test_case "step isolated" `Quick test_walk_step_isolated;
          Alcotest.test_case "endpoint zero" `Quick test_walk_endpoint_length_zero;
          Alcotest.test_case "path shape" `Quick test_walk_path_shape;
          Alcotest.test_case "bipartite parity" `Quick test_walk_parity_on_bipartite;
          Alcotest.test_case "mixes to uniform" `Slow test_walk_mixes_to_uniform;
          Alcotest.test_case "short walk biased" `Quick test_walk_short_walk_not_uniform;
          Alcotest.test_case "cover" `Quick test_walk_cover;
          Alcotest.test_case "tv validation" `Quick test_walk_tv_validation;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip_basic;
          Alcotest.test_case "empty graph" `Quick test_io_empty_graph;
          Alcotest.test_case "header errors" `Quick test_io_header_errors;
          Alcotest.test_case "body errors" `Quick test_io_body_errors;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        ] );
      ( "join-local",
        [
          Alcotest.test_case "preserves regularity" `Quick
            test_join_local_preserves_regularity;
          Alcotest.test_case "many joins" `Quick test_join_local_many;
          Alcotest.test_case "validation" `Quick test_join_local_validation;
        ] );
      ( "trace-export",
        [
          Alcotest.test_case "csv" `Quick test_trace_csv;
          Alcotest.test_case "informed series" `Quick test_trace_informed_series;
          Alcotest.test_case "pipeline" `Quick test_trace_pipeline;
        ] );
      ( "sparkline",
        [
          Alcotest.test_case "shape" `Quick test_sparkline_shape;
          Alcotest.test_case "monotone" `Quick test_sparkline_monotone;
          Alcotest.test_case "constant" `Quick test_sparkline_constant;
          Alcotest.test_case "nan" `Quick test_sparkline_nan;
          Alcotest.test_case "ints and scale" `Quick test_sparkline_ints_and_scale;
        ] );
      ("properties", qcheck_cases);
    ]
