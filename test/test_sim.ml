(* Tests for the rumor_sim library: topology views, faults, traces,
   selectors and the engine's round semantics. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Topology = Rumor_test_support.Topology
module Fault = Rumor_sim.Fault
module Trace = Rumor_test_support.Trace
module Selector = Rumor_sim.Selector
module Protocol = Rumor_sim.Protocol
module Engine = Rumor_sim.Engine

(* A minimal always-push protocol used by many engine tests. *)
let pusher ?(fanout = 1) ?(pull = false) ~horizon () =
  {
    Protocol.name = "test-push";
    selector = Selector.Uniform { fanout };
    horizon;
    init = (fun ~informed -> informed);
    decide = (fun st ~round -> ignore round; ignore st;
               { Protocol.push = true; pull });
    receive = (fun _ ~round -> ignore round; true);
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > horizon);
    packed = None;
  }

let silent_protocol ~horizon =
  {
    Protocol.name = "test-silent";
    selector = Selector.Uniform { fanout = 1 };
    horizon;
    init = (fun ~informed -> informed);
    decide = (fun _ ~round -> ignore round; Protocol.silent);
    receive = (fun _ ~round -> ignore round; true);
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> ignore round; false);
    packed = None;
  }

(* --- Topology --- *)

let test_topology_of_graph () =
  let g = Classic.cycle 5 in
  let t = Topology.of_graph g in
  Alcotest.(check int) "capacity" 5 t.Topology.capacity;
  Alcotest.(check int) "degree" 2 (t.Topology.degree 3);
  Alcotest.(check bool) "alive" true (t.Topology.alive 0);
  Alcotest.(check int) "alive count" 5 (Topology.alive_count t);
  let w = t.Topology.neighbor 0 0 in
  Alcotest.(check bool) "neighbor adjacent" true (Graph.mem_edge g 0 w)

(* --- Fault --- *)

let test_fault_none () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "channel ok" true (Fault.channel_ok Fault.none rng);
    Alcotest.(check bool) "delivery ok" true (Fault.delivery_ok Fault.none rng)
  done

let test_fault_validation () =
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Fault.make: link_loss out of range") (fun () ->
      ignore (Fault.make ~link_loss:1.5 ()))

let test_fault_total_loss () =
  let rng = Rng.create 2 in
  let f = Fault.make ~link_loss:1. () in
  for _ = 1 to 50 do
    Alcotest.(check bool) "always lost" false (Fault.delivery_ok f rng)
  done

let test_fault_frequency () =
  let rng = Rng.create 3 in
  let f = Fault.make ~call_failure:0.3 () in
  let ok = ref 0 in
  for _ = 1 to 20_000 do
    if Fault.channel_ok f rng then incr ok
  done;
  let rate = float_of_int !ok /. 20_000. in
  Alcotest.(check bool) "~70% established" true (abs_float (rate -. 0.7) < 0.02)

let test_fault_make_is_plan_subset () =
  (* The compatible constructor builds the same plan as the full one. *)
  Alcotest.(check bool) "make = plan on shared fields" true
    (Fault.make ~call_failure:0.1 ~link_loss:0.2 ()
    = Fault.plan ~call_failure:0.1 ~link_loss:0.2 ());
  (* Stateless helpers ignore the stateful modes entirely. *)
  let rng = Rng.create 20 in
  let f =
    Fault.plan ~burst:(Fault.burst ~loss:0.5 ~burst_len:2.) ~crash_rate:0.9 ()
  in
  for _ = 1 to 50 do
    Alcotest.(check bool) "channel unaffected" true (Fault.channel_ok f rng);
    Alcotest.(check bool) "delivery unaffected" true (Fault.delivery_ok f rng)
  done

(* --- Trace --- *)

let test_trace_growth () =
  let t = Trace.create () in
  Alcotest.(check int) "empty" 0 (Trace.length t);
  for r = 1 to 100 do
    Trace.add t
      { Trace.round = r; informed = r; newly = 1; push_tx = r; pull_tx = 0;
        channels = r }
  done;
  Alcotest.(check int) "length" 100 (Trace.length t);
  Alcotest.(check int) "get round" 42 (Trace.get t 41).Trace.round;
  Alcotest.(check int) "rows order" 1 (List.hd (Trace.rows t)).Trace.round;
  Alcotest.check_raises "bad index" (Invalid_argument "Trace.get: index")
    (fun () -> ignore (Trace.get t 100))

let test_trace_pp () =
  let t = Trace.create () in
  Trace.add t
    { Trace.round = 1; informed = 2; newly = 1; push_tx = 3; pull_tx = 0;
      channels = 4 };
  let s = Format.asprintf "%a" Trace.pp t in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions header" true (contains "informed" s)

(* --- Selector --- *)

let select_list sel ~rng ~node ~degree k =
  let out = Array.make (max k 1) 0 in
  let n = Selector.select sel ~rng ~node ~degree ~out in
  Array.to_list (Array.sub out 0 n)

let test_selector_uniform_distinct () =
  let sel = Selector.make (Selector.Uniform { fanout = 4 }) ~capacity:1 in
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    let l = select_list sel ~rng ~node:0 ~degree:10 4 in
    Alcotest.(check int) "four picks" 4 (List.length l);
    let s = List.sort_uniq compare l in
    Alcotest.(check int) "distinct" 4 (List.length s);
    List.iter
      (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 10))
      l
  done

let test_selector_fanout_capped () =
  let sel = Selector.make (Selector.Uniform { fanout = 4 }) ~capacity:1 in
  let rng = Rng.create 5 in
  let l = select_list sel ~rng ~node:0 ~degree:2 4 in
  Alcotest.(check int) "capped at degree" 2 (List.length l);
  Alcotest.(check int) "zero degree none" 0
    (List.length (select_list sel ~rng ~node:0 ~degree:0 4))

let test_selector_validate () =
  Alcotest.check_raises "fanout" (Invalid_argument "Selector: fanout < 1")
    (fun () -> Selector.validate (Selector.Uniform { fanout = 0 }));
  Alcotest.check_raises "window" (Invalid_argument "Selector: window < 0")
    (fun () ->
      Selector.validate (Selector.Avoid_recent { fanout = 1; window = -1 }))

let test_selector_quasirandom_cyclic () =
  let sel = Selector.make (Selector.Quasirandom { fanout = 1 }) ~capacity:2 in
  let rng = Rng.create 6 in
  (* Consecutive calls walk the list cyclically: 10 calls on degree 10
     visit every index exactly once. *)
  let seen = Array.make 10 0 in
  for _ = 1 to 10 do
    match select_list sel ~rng ~node:0 ~degree:10 1 with
    | [ i ] -> seen.(i) <- seen.(i) + 1
    | _ -> Alcotest.fail "expected one pick"
  done;
  Array.iter (fun c -> Alcotest.(check int) "each index once" 1 c) seen

let test_selector_quasirandom_fanout () =
  let sel = Selector.make (Selector.Quasirandom { fanout = 3 }) ~capacity:1 in
  let rng = Rng.create 7 in
  let a = select_list sel ~rng ~node:0 ~degree:10 3 in
  let b = select_list sel ~rng ~node:0 ~degree:10 3 in
  (match (a, b) with
  | [ a0; a1; a2 ], [ b0; _; _ ] ->
      Alcotest.(check int) "consecutive" ((a0 + 1) mod 10) a1;
      Alcotest.(check int) "consecutive" ((a1 + 1) mod 10) a2;
      Alcotest.(check int) "continues" ((a2 + 1) mod 10) b0
  | _ -> Alcotest.fail "expected three picks");
  ()

(* Churn shrinks degrees between rounds: the cyclic position a node
   kept from a larger adjacency list must be reduced to the new one. *)
let test_selector_quasirandom_shrink () =
  for seed = 1 to 200 do
    let sel = Selector.make (Selector.Quasirandom { fanout = 4 }) ~capacity:1 in
    let rng = Rng.create seed in
    ignore (select_list sel ~rng ~node:0 ~degree:8 4);
    match select_list sel ~rng ~node:0 ~degree:3 4 with
    | [ a; b; c ] ->
        List.iter
          (fun i ->
            if i < 0 || i >= 3 then
              Alcotest.failf "seed %d: index %d at degree 3" seed i)
          [ a; b; c ];
        Alcotest.(check int) "cyclic" ((a + 1) mod 3) b;
        Alcotest.(check int) "cyclic" ((b + 1) mod 3) c
    | _ -> Alcotest.fail "expected three picks"
  done

let test_selector_avoid_recent () =
  let sel =
    Selector.make (Selector.Avoid_recent { fanout = 1; window = 3 }) ~capacity:1
  in
  let rng = Rng.create 8 in
  (* With degree 10 and window 3, four consecutive picks are pairwise
     distinct (each avoids the previous three). *)
  for _ = 1 to 50 do
    let picks =
      List.concat_map
        (fun _ -> select_list sel ~rng ~node:0 ~degree:10 1)
        [ (); (); (); () ]
    in
    Alcotest.(check int) "4 distinct picks" 4
      (List.length (List.sort_uniq compare picks))
  done

let test_selector_avoid_recent_small_degree () =
  (* window + fanout > degree: falls back to plain uniform, still works. *)
  let sel =
    Selector.make (Selector.Avoid_recent { fanout = 1; window = 3 }) ~capacity:1
  in
  let rng = Rng.create 9 in
  for _ = 1 to 100 do
    match select_list sel ~rng ~node:0 ~degree:2 1 with
    | [ i ] -> Alcotest.(check bool) "in range" true (i >= 0 && i < 2)
    | _ -> Alcotest.fail "expected one pick"
  done

let test_selector_per_node_memory () =
  (* Memory is per node: node 1's picks are unconstrained by node 0's. *)
  let sel =
    Selector.make (Selector.Avoid_recent { fanout = 1; window = 2 }) ~capacity:2
  in
  let rng = Rng.create 10 in
  ignore (select_list sel ~rng ~node:0 ~degree:5 1);
  ignore (select_list sel ~rng ~node:1 ~degree:5 1);
  ignore (select_list sel ~rng ~node:0 ~degree:5 1);
  (* No assertion beyond "does not raise": the regression here was index
     collision between nodes. *)
  ()

(* --- Engine --- *)

let run_push ?fault ?(stop = false) ?(fanout = 1) ~graph ~horizon ~seed () =
  let rng = Rng.create seed in
  Engine.run ?fault ~stop_when_complete:stop ~rng
    ~topology:(Topology.of_graph graph)
    ~protocol:(pusher ~fanout ~horizon ())
    ~sources:[ 0 ] ()

let test_engine_completes_complete_graph () =
  let res = run_push ~graph:(Classic.complete 64) ~horizon:60 ~seed:1 () in
  Alcotest.(check bool) "success" true (Engine.success res);
  Alcotest.(check int) "population" 64 res.Engine.population;
  Alcotest.(check bool) "completion recorded" true
    (res.Engine.completion_round <> None)

let test_engine_completes_regular_graph () =
  let rng = Rng.create 2 in
  let g = Regular.sample_connected ~rng ~n:256 ~d:4 Regular.Pairing in
  let res = run_push ~graph:g ~horizon:200 ~seed:3 () in
  Alcotest.(check bool) "success" true (Engine.success res)

let test_engine_silent_never_spreads () =
  let rng = Rng.create 4 in
  Alcotest.(check int) "only source informed" 1
    (Engine.run ~rng
       ~topology:(Topology.of_graph (Classic.complete 32))
       ~protocol:(silent_protocol ~horizon:20)
       ~sources:[ 0 ] ())
      .Engine.informed

let test_engine_no_sources_rejected () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "empty sources" (Invalid_argument "Engine.run: no sources")
    (fun () ->
      ignore
        (Engine.run ~rng
           ~topology:(Topology.of_graph (Classic.complete 4))
           ~protocol:(pusher ~horizon:5 ())
           ~sources:[] ()))

let test_engine_bad_source_rejected () =
  let rng = Rng.create 6 in
  Alcotest.check_raises "bad source" (Invalid_argument "Engine.run: bad source")
    (fun () ->
      ignore
        (Engine.run ~rng
           ~topology:(Topology.of_graph (Classic.complete 4))
           ~protocol:(pusher ~horizon:5 ())
           ~sources:[ 9 ] ()))

let test_engine_stop_when_complete () =
  let res =
    run_push ~stop:true ~graph:(Classic.complete 64) ~horizon:10_000 ~seed:7 ()
  in
  Alcotest.(check bool) "stopped early" true (res.Engine.rounds < 100);
  Alcotest.(check (option int)) "completion = rounds"
    (Some res.Engine.rounds) res.Engine.completion_round

let test_engine_horizon_respected () =
  let res = run_push ~graph:(Classic.cycle 1000) ~horizon:7 ~seed:8 () in
  Alcotest.(check int) "exactly horizon rounds" 7 res.Engine.rounds;
  Alcotest.(check bool) "cycle too slow to finish" false (Engine.success res)

let test_engine_quiescent_early_stop () =
  (* Protocol quiescent from round 4 on: engine stops at round 3. *)
  let p = pusher ~horizon:100 () in
  let p = { p with Protocol.quiescent = (fun _ ~round -> round > 3); packed = None } in
  let rng = Rng.create 9 in
  let res =
    Engine.run ~rng
      ~topology:(Topology.of_graph (Classic.complete 32))
      ~protocol:p ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "stopped when quiet" 3 res.Engine.rounds

let test_engine_trace_consistency () =
  let rng = Rng.create 10 in
  let res =
    Engine.run ~collect_trace:true ~rng
      ~topology:(Topology.of_graph (Classic.complete 64))
      ~protocol:(pusher ~horizon:40 ())
      ~sources:[ 0 ] ()
  in
  match res.Engine.trace with
  | None -> Alcotest.fail "trace requested but missing"
  | Some t ->
      let rows = Trace.rows t in
      Alcotest.(check int) "one row per round" res.Engine.rounds
        (List.length rows);
      let newly_sum =
        List.fold_left (fun acc r -> acc + r.Trace.newly) 0 rows
      in
      Alcotest.(check int) "newly sums to informed minus source"
        (res.Engine.informed - 1) newly_sum;
      let push_sum =
        List.fold_left (fun acc r -> acc + r.Trace.push_tx) 0 rows
      in
      Alcotest.(check int) "push totals match" res.Engine.push_tx push_sum;
      (* informed counts are monotone *)
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            a.Trace.informed <= b.Trace.informed && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone informed" true (monotone rows)

let test_engine_knows_matches_informed () =
  let res = run_push ~graph:(Classic.complete 32) ~horizon:30 ~seed:11 () in
  let know_count = Rumor_test_support.Bitset.cardinal res.Engine.knows in
  Alcotest.(check int) "knows array consistent" res.Engine.informed know_count

let test_engine_total_link_loss () =
  let f = Fault.make ~link_loss:1. () in
  let res = run_push ~fault:f ~graph:(Classic.complete 32) ~horizon:20 ~seed:12 () in
  Alcotest.(check int) "nothing spreads" 1 res.Engine.informed;
  (* Transmissions are attempted but all lost: the engine counts only
     deliveries, so push_tx stays 0. *)
  Alcotest.(check int) "no delivered transmissions" 0 res.Engine.push_tx

let test_engine_total_call_failure () =
  let f = Fault.make ~call_failure:1. () in
  let res = run_push ~fault:f ~graph:(Classic.complete 32) ~horizon:20 ~seed:13 () in
  Alcotest.(check int) "no channels" 0 res.Engine.channels;
  Alcotest.(check int) "nothing spreads" 1 res.Engine.informed

let test_engine_partial_loss_still_completes () =
  let f = Fault.make ~link_loss:0.3 () in
  let res =
    run_push ~fault:f ~graph:(Classic.complete 64) ~horizon:200 ~seed:14 ()
  in
  Alcotest.(check bool) "completes despite loss" true (Engine.success res)

let test_engine_channels_counted () =
  let res = run_push ~graph:(Classic.complete 16) ~horizon:5 ~seed:15 () in
  (* 16 nodes x 1 call x 5 rounds, all established. *)
  Alcotest.(check int) "channels" 80 res.Engine.channels

let test_engine_pull_direction () =
  (* Pull-only: informed nodes answer callers; on K_n one round after the
     source is called by ~everyone... with fanout 1 expect steady spread. *)
  let p = pusher ~horizon:100 () in
  let p =
    {
      p with
      Protocol.decide = (fun _ ~round -> ignore round;
                          { Protocol.push = false; pull = true });
    }
  in
  let rng = Rng.create 16 in
  let res =
    Engine.run ~stop_when_complete:true ~rng
      ~topology:(Topology.of_graph (Classic.complete 64))
      ~protocol:p ~sources:[ 0 ] ()
  in
  Alcotest.(check bool) "pull completes" true (Engine.success res);
  Alcotest.(check int) "no pushes" 0 res.Engine.push_tx;
  Alcotest.(check bool) "pulls happened" true (res.Engine.pull_tx > 0)

let test_engine_on_round_end_called () =
  let calls = ref [] in
  let rng = Rng.create 17 in
  let _ =
    Engine.run ~rng
      ~on_round_end:(fun r ->
        calls := r :: !calls;
        [])
      ~topology:(Topology.of_graph (Classic.complete 8))
      ~protocol:(pusher ~horizon:4 ())
      ~sources:[ 0 ] ()
  in
  Alcotest.(check (list int)) "called each round" [ 4; 3; 2; 1 ] !calls;
  Alcotest.check_raises "a change outside the capacity"
    (Invalid_argument "Kernel.run: change id out of range") (fun () ->
      ignore
        (Engine.run ~rng
           ~on_round_end:(fun _ -> [ Engine.Left 8 ])
           ~topology:(Topology.of_graph (Classic.complete 8))
           ~protocol:(pusher ~horizon:4 ())
           ~sources:[ 0 ] ()))

let test_engine_multi_source () =
  let res =
    let rng = Rng.create 18 in
    Engine.run ~stop_when_complete:true ~rng
      ~topology:(Topology.of_graph (Classic.cycle 30))
      ~protocol:(pusher ~horizon:300 ())
      ~sources:[ 0; 10; 20 ] ()
  in
  Alcotest.(check bool) "multi-source completes faster" true
    (Engine.success res && res.Engine.rounds < 150)

let test_engine_deterministic () =
  let a = run_push ~graph:(Classic.complete 64) ~horizon:30 ~seed:99 () in
  let b = run_push ~graph:(Classic.complete 64) ~horizon:30 ~seed:99 () in
  Alcotest.(check int) "same transmissions" (Engine.transmissions a)
    (Engine.transmissions b);
  Alcotest.(check (option int)) "same completion" a.Engine.completion_round
    b.Engine.completion_round

(* --- qcheck properties --- *)

let prop_informed_never_decreases =
  QCheck.Test.make ~count:40 ~name:"final informed >= sources"
    QCheck.(pair small_int (int_range 4 64))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let res =
        Engine.run ~rng
          ~topology:(Topology.of_graph (Classic.cycle (max n 3)))
          ~protocol:(pusher ~horizon:10 ())
          ~sources:[ 0 ] ()
      in
      res.Engine.informed >= 1 && res.Engine.informed <= res.Engine.population)

let prop_fanout_speeds_completion =
  QCheck.Test.make ~count:20 ~name:"fanout 4 at least as fast as fanout 1 on K_n"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = Classic.complete 128 in
      let r1 = run_push ~stop:true ~fanout:1 ~graph:g ~horizon:500 ~seed () in
      let r4 = run_push ~stop:true ~fanout:4 ~graph:g ~horizon:500 ~seed () in
      match (r1.Engine.completion_round, r4.Engine.completion_round) with
      | Some c1, Some c4 -> c4 <= c1 + 2
      | _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_informed_never_decreases; prop_fanout_speeds_completion ]

let () =
  Alcotest.run "rumor_sim"
    [
      ("topology", [ Alcotest.test_case "of_graph" `Quick test_topology_of_graph ]);
      ( "fault",
        [
          Alcotest.test_case "none" `Quick test_fault_none;
          Alcotest.test_case "validation" `Quick test_fault_validation;
          Alcotest.test_case "total loss" `Quick test_fault_total_loss;
          Alcotest.test_case "frequency" `Quick test_fault_frequency;
          Alcotest.test_case "make is plan subset" `Quick
            test_fault_make_is_plan_subset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "growth" `Quick test_trace_growth;
          Alcotest.test_case "pp" `Quick test_trace_pp;
        ] );
      ( "selector",
        [
          Alcotest.test_case "uniform distinct" `Quick test_selector_uniform_distinct;
          Alcotest.test_case "fanout capped" `Quick test_selector_fanout_capped;
          Alcotest.test_case "validate" `Quick test_selector_validate;
          Alcotest.test_case "quasirandom cyclic" `Quick
            test_selector_quasirandom_cyclic;
          Alcotest.test_case "quasirandom fanout" `Quick
            test_selector_quasirandom_fanout;
          Alcotest.test_case "avoid recent" `Quick test_selector_avoid_recent;
          Alcotest.test_case "avoid recent small degree" `Quick
            test_selector_avoid_recent_small_degree;
          Alcotest.test_case "per-node memory" `Quick test_selector_per_node_memory;
          Alcotest.test_case "quasirandom degree shrink" `Quick
            test_selector_quasirandom_shrink;
        ] );
      ( "engine",
        [
          Alcotest.test_case "completes K_n" `Quick test_engine_completes_complete_graph;
          Alcotest.test_case "completes G(n,d)" `Quick
            test_engine_completes_regular_graph;
          Alcotest.test_case "silent stays put" `Quick test_engine_silent_never_spreads;
          Alcotest.test_case "no sources" `Quick test_engine_no_sources_rejected;
          Alcotest.test_case "bad source" `Quick test_engine_bad_source_rejected;
          Alcotest.test_case "stop when complete" `Quick test_engine_stop_when_complete;
          Alcotest.test_case "horizon respected" `Quick test_engine_horizon_respected;
          Alcotest.test_case "quiescent early stop" `Quick
            test_engine_quiescent_early_stop;
          Alcotest.test_case "trace consistency" `Quick test_engine_trace_consistency;
          Alcotest.test_case "knows matches informed" `Quick
            test_engine_knows_matches_informed;
          Alcotest.test_case "total link loss" `Quick test_engine_total_link_loss;
          Alcotest.test_case "total call failure" `Quick test_engine_total_call_failure;
          Alcotest.test_case "partial loss completes" `Quick
            test_engine_partial_loss_still_completes;
          Alcotest.test_case "channels counted" `Quick test_engine_channels_counted;
          Alcotest.test_case "pull direction" `Quick test_engine_pull_direction;
          Alcotest.test_case "on_round_end" `Quick test_engine_on_round_end_called;
          Alcotest.test_case "multi source" `Quick test_engine_multi_source;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
        ] );
      ("properties", qcheck_cases);
    ]
