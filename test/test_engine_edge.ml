(* Edge cases of the engine on degenerate and multigraph topologies:
   self-loops, parallel edges, tiny graphs, and accounting identities. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Topology = Rumor_test_support.Topology
module Trace = Rumor_test_support.Trace
module Protocol = Rumor_sim.Protocol
module Params = Rumor_core.Params
module Algorithm = Rumor_core.Algorithm
module Baselines = Rumor_core.Baselines
module Run = Rumor_core.Run

let run_push ?(fanout = 1) ?(pull = false) ~graph ~horizon ~seed () =
  let rng = Rng.create seed in
  let p =
    if pull then Baselines.push_pull ~fanout ~horizon ()
    else Baselines.push ~fanout ~horizon ()
  in
  Engine.run ~collect_trace:true ~rng
    ~topology:(Topology.of_graph graph)
    ~protocol:p ~sources:[ 0 ] ()

(* --- degenerate graphs --- *)

let test_single_vertex () =
  let g = Graph.of_edges ~n:1 [] in
  let res = run_push ~graph:g ~horizon:5 ~seed:1 () in
  Alcotest.(check int) "informed" 1 res.Engine.informed;
  Alcotest.(check bool) "success" true (Engine.success res);
  Alcotest.(check int) "no transmissions" 0 (Engine.transmissions res);
  Alcotest.(check (option int)) "complete from the start... after round 1"
    (Some 1) res.Engine.completion_round

let test_self_loop_only () =
  (* A vertex whose only edge is a self-loop talks to itself. *)
  let g = Graph.of_edges ~n:2 [ (0, 0) ] in
  let res = run_push ~graph:g ~horizon:5 ~seed:2 () in
  Alcotest.(check int) "only source informed" 1 res.Engine.informed;
  (* Self-deliveries are redundant copies and still count as push
     transmissions. *)
  Alcotest.(check bool) "self pushes counted" true (res.Engine.push_tx > 0)

let test_two_vertices_parallel_edges () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 1); (0, 1) ] in
  let res = run_push ~graph:g ~horizon:5 ~seed:3 () in
  Alcotest.(check bool) "success" true (Engine.success res);
  Alcotest.(check (option int)) "one round" (Some 1) res.Engine.completion_round

let test_multigraph_fanout_counts_stubs () =
  (* Degree 4 made of two double edges: fanout 4 calls all stubs, so a
     round opens 4 channels per node even though there are only 2
     distinct neighbours. *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 1); (0, 2); (0, 2) ] in
  let rng = Rng.create 4 in
  let res =
    Engine.run ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.push ~fanout:4 ~horizon:1 ())
      ~sources:[ 0 ] ()
  in
  (* Node 0 opens 4 channels; nodes 1 and 2 open 2 each. *)
  Alcotest.(check int) "channels" 8 res.Engine.channels;
  Alcotest.(check bool) "both informed" true (Engine.success res)

let test_pairing_model_graph_end_to_end () =
  (* The raw configuration model (self-loops, parallel edges) is the
     paper's own model; the full algorithm must run on it unmodified. *)
  for seed = 1 to 5 do
    let rng = Rng.create (100 + seed) in
    let g = Regular.sample ~rng ~n:512 ~d:6 Regular.Pairing in
    if Rumor_test_support.Traversal.is_connected g then begin
      let params = Params.make ~alpha:2.0 ~n_estimate:512 ~d:6 () in
      let res = Run.once ~rng ~graph:g ~protocol:(Algorithm.make params) ~source:0 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d completes on multigraph" seed)
        true (Engine.success res)
    end
  done

let test_star_pull_dynamics () =
  (* On a star, pull-only from the hub informs everyone in one round:
     every leaf calls the hub. *)
  let g = Classic.star 32 in
  let rng = Rng.create 5 in
  let res =
    Engine.run ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.pull ~horizon:3 ())
      ~sources:[ 0 ] ()
  in
  Alcotest.(check (option int)) "one pull round" (Some 1) res.Engine.completion_round;
  (* Every one of the 31 leaves called the hub and got answered; the hub
     itself called a leaf that had nothing to answer with. *)
  Alcotest.(check bool)
    (Printf.sprintf "pull tx %d >= 31" res.Engine.pull_tx)
    true
    (res.Engine.pull_tx >= 31);
  Alcotest.(check int) "no pushes" 0 res.Engine.push_tx

let test_push_on_star_is_slow () =
  (* Push-only from a leaf must route through the hub: 2 rounds minimum,
     and informing all leaves needs ~n log n hub pushes — with fanout 1
     the hub informs one leaf per round. *)
  let g = Classic.star 16 in
  let rng = Rng.create 6 in
  let res =
    Engine.run ~stop_when_complete:true ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.push ~horizon:500 ())
      ~sources:[ 1 ] ()
  in
  Alcotest.(check bool) "completes" true (Engine.success res);
  match res.Engine.completion_round with
  | Some r -> Alcotest.(check bool) "needs many rounds" true (r >= 15)
  | None -> Alcotest.fail "no completion"

(* --- accounting identities --- *)

let test_trace_totals_match_result () =
  let rng = Rng.create 7 in
  let g = Regular.sample_connected ~rng ~n:256 ~d:6 Regular.Pairing in
  let res =
    Engine.run ~collect_trace:true ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.push_pull ~horizon:20 ())
      ~sources:[ 0 ] ()
  in
  match res.Engine.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 (Trace.rows t) in
      Alcotest.(check int) "push" res.Engine.push_tx (sum (fun r -> r.Trace.push_tx));
      Alcotest.(check int) "pull" res.Engine.pull_tx (sum (fun r -> r.Trace.pull_tx));
      Alcotest.(check int) "channels" res.Engine.channels
        (sum (fun r -> r.Trace.channels));
      Alcotest.(check int) "rounds = rows" res.Engine.rounds (Trace.length t)

let test_channels_per_round_identity () =
  (* With no faults and fanout f <= min degree, channels per round equal
     n * f exactly. *)
  let g = Classic.complete 20 in
  let res = run_push ~fanout:3 ~graph:g ~horizon:6 ~seed:8 () in
  Alcotest.(check int) "channels = n*f*rounds" (20 * 3 * 6) res.Engine.channels

let test_push_tx_identity () =
  (* Every push by an informed node over an open channel is counted,
     whether or not the recipient was new: on round r the number of push
     transmissions equals fanout * informed-at-start-of-round. *)
  let g = Classic.complete 64 in
  let res = run_push ~fanout:2 ~graph:g ~horizon:10 ~seed:9 () in
  match res.Engine.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      let informed_before = ref 1 in
      List.iter
        (fun row ->
          Alcotest.(check int)
            (Printf.sprintf "round %d push accounting" row.Trace.round)
            (2 * !informed_before) row.Trace.push_tx;
          informed_before := row.Trace.informed)
        (Trace.rows t)

let test_completion_round_is_when_last_learned () =
  let rng = Rng.create 10 in
  let g = Regular.sample_connected ~rng ~n:128 ~d:4 Regular.Pairing in
  let res =
    Engine.run ~collect_trace:true ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.push_pull ~horizon:200 ())
      ~sources:[ 0 ] ()
  in
  match (res.Engine.completion_round, res.Engine.trace) with
  | Some c, Some t ->
      let at r = (Trace.get t (r - 1)).Trace.informed in
      Alcotest.(check int) "full at completion" 128 (at c);
      if c > 1 then
        Alcotest.(check bool) "not full before" true (at (c - 1) < 128)
  | _ -> Alcotest.fail "missing completion or trace"

(* --- protocol horizon edge cases --- *)

let test_zero_round_impossible () =
  (* horizon >= 1 is implied: a 1-round run executes exactly one round. *)
  let res = run_push ~graph:(Classic.complete 4) ~horizon:1 ~seed:11 () in
  Alcotest.(check int) "one round" 1 res.Engine.rounds

let test_sources_all_nodes () =
  let g = Classic.complete 8 in
  let rng = Rng.create 12 in
  let res =
    Engine.run ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.push ~horizon:3 ())
      ~sources:(List.init 8 (fun i -> i))
      ()
  in
  Alcotest.(check (option int)) "complete instantly" (Some 1)
    res.Engine.completion_round;
  Alcotest.(check int) "everyone informed" 8 res.Engine.informed

let test_duplicate_sources () =
  let g = Classic.complete 8 in
  let rng = Rng.create 13 in
  let res =
    Engine.run ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Baselines.push ~horizon:5 ())
      ~sources:[ 0; 0; 0 ] ()
  in
  Alcotest.(check bool) "tolerated" true (res.Engine.informed >= 1)

(* --- Algorithm on extreme parameters --- *)

let test_algorithm_tiny_graph () =
  (* The smallest parameters the API accepts still terminate cleanly. *)
  let g = Classic.complete 4 in
  let rng = Rng.create 14 in
  let params = Params.make ~n_estimate:4 ~d:3 ~fanout:3 () in
  let res = Run.once ~rng ~graph:g ~protocol:(Algorithm.make params) ~source:0 () in
  Alcotest.(check bool) "completes" true (Engine.success res)

let test_algorithm_fanout_exceeds_degree () =
  (* fanout 4 on a 3-regular graph: selector caps at the degree. *)
  let rng = Rng.create 15 in
  let g = Regular.sample_connected ~rng ~n:128 ~d:3 Regular.Pairing in
  let params = Params.make ~alpha:2.0 ~n_estimate:128 ~d:3 () in
  let res = Run.once ~rng ~graph:g ~protocol:(Algorithm.make params) ~source:0 () in
  Alcotest.(check bool) "completes with capped fanout" true (Engine.success res)

let () =
  Alcotest.run "engine-edge"
    [
      ( "degenerate",
        [
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "self loop only" `Quick test_self_loop_only;
          Alcotest.test_case "parallel edges" `Quick test_two_vertices_parallel_edges;
          Alcotest.test_case "multigraph stubs" `Quick
            test_multigraph_fanout_counts_stubs;
          Alcotest.test_case "pairing model e2e" `Quick
            test_pairing_model_graph_end_to_end;
          Alcotest.test_case "star pull" `Quick test_star_pull_dynamics;
          Alcotest.test_case "star push slow" `Quick test_push_on_star_is_slow;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "trace totals" `Quick test_trace_totals_match_result;
          Alcotest.test_case "channels identity" `Quick
            test_channels_per_round_identity;
          Alcotest.test_case "push tx identity" `Quick test_push_tx_identity;
          Alcotest.test_case "completion round" `Quick
            test_completion_round_is_when_last_learned;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "one round" `Quick test_zero_round_impossible;
          Alcotest.test_case "all sources" `Quick test_sources_all_nodes;
          Alcotest.test_case "duplicate sources" `Quick test_duplicate_sources;
          Alcotest.test_case "tiny algorithm" `Quick test_algorithm_tiny_graph;
          Alcotest.test_case "fanout > degree" `Quick
            test_algorithm_fanout_exceeds_degree;
        ] );
    ]
