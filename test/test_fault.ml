(* Tests for the composable fault plan: Gilbert–Elliott bursty loss,
   asymmetric per-direction loss, crash schedules and adversarial
   strikes, plus the bit-identity guarantee of [Fault.none]. *)

module Rng = Rumor_test_support.Rng
module Classic = Rumor_test_support.Classic
module Topology = Rumor_test_support.Topology
module Fault = Rumor_sim.Fault
module Selector = Rumor_sim.Selector
module Protocol = Rumor_sim.Protocol
module Engine = Rumor_sim.Engine
module Async = Rumor_sim.Async
module Repair = Rumor_test_support.Repair

let pusher ?(push = true) ?(pull = false) ~horizon () =
  {
    Protocol.name = "test-push";
    selector = Selector.Uniform { fanout = 1 };
    horizon;
    init = (fun ~informed -> informed);
    decide = (fun st ~round -> ignore round; ignore st; { Protocol.push; pull });
    receive = (fun _ ~round -> ignore round; true);
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > horizon);
    packed = None;
  }

let run ?fault ?(pull = false) ?(push = true) ~graph ~horizon ~seed () =
  let rng = Rng.create seed in
  Engine.run ?fault ~rng
    ~topology:(Topology.of_graph graph)
    ~protocol:(pusher ~push ~pull ~horizon ())
    ~sources:[ 0 ] ()

(* --- constructors --- *)

let test_burst_validation () =
  Alcotest.check_raises "loss >= 1"
    (Invalid_argument "Fault.burst: loss must be in [0, 1)") (fun () ->
      ignore (Fault.burst ~loss:1. ~burst_len:4.));
  Alcotest.check_raises "burst_len < 1"
    (Invalid_argument "Fault.burst: burst_len must be >= 1") (fun () ->
      ignore (Fault.burst ~loss:0.1 ~burst_len:0.5));
  (* loss 0.9 with burst_len 2 needs an enter probability > 1. *)
  Alcotest.check_raises "unrealisable combination"
    (Invalid_argument "Fault.burst: loss too high for this burst_len")
    (fun () -> ignore (Fault.burst ~loss:0.9 ~burst_len:2.))

let test_strike_validation () =
  Alcotest.check_raises "at_round < 1"
    (Invalid_argument "Fault.strike: at_round must be >= 1") (fun () ->
      ignore (Fault.strike ~at_round:0 ~count:1 ()));
  Alcotest.check_raises "count < 0"
    (Invalid_argument "Fault.strike: count must be >= 0") (fun () ->
      ignore (Fault.strike ~at_round:1 ~count:(-1) ()))

let test_plan_validation () =
  Alcotest.check_raises "crash_rate"
    (Invalid_argument "Fault.plan: crash_rate out of range") (fun () ->
      ignore (Fault.plan ~crash_rate:1.5 ()))

(* --- Gilbert–Elliott chain --- *)

(* The chain's bad-state occupancy must match the plan's stationary
   loss. 200 independent chains, 1000 rounds after burn-in: the
   standard error of the occupancy estimate is well under 0.01. *)
let test_burst_stationary () =
  let loss = 0.2 in
  let plan = Fault.plan ~burst:(Fault.burst ~loss ~burst_len:4.) () in
  let capacity = 200 in
  let rt = Fault.start plan ~capacity in
  let rng = Rng.create 42 in
  let deg _ = 0 and alive _ = true and informed _ = false in
  for r = 1 to 200 do
    Fault.begin_round rt ~rng ~round:r ~degree:deg ~alive ~informed
  done;
  let bad = ref 0 and total = ref 0 in
  for r = 201 to 1200 do
    Fault.begin_round rt ~rng ~round:r ~degree:deg ~alive ~informed;
    for v = 0 to capacity - 1 do
      incr total;
      if Fault.bursting rt v then incr bad
    done
  done;
  let rate = float_of_int !bad /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "occupancy %.3f within 0.02 of %.2f" rate loss)
    true
    (abs_float (rate -. loss) < 0.02)

let test_bursting_sender_drops () =
  (* A node in the bad state loses every transmission it sends; a node
     in the good state (no other loss configured) loses none. *)
  let plan = Fault.plan ~burst:(Fault.burst ~loss:0.5 ~burst_len:2.) () in
  let rt = Fault.start plan ~capacity:64 in
  let rng = Rng.create 7 in
  let deg _ = 0 and alive _ = true and informed _ = false in
  for r = 1 to 50 do
    Fault.begin_round rt ~rng ~round:r ~degree:deg ~alive ~informed
  done;
  for v = 0 to 63 do
    let expected = not (Fault.bursting rt v) in
    Alcotest.(check bool) "push matches burst state" expected
      (Fault.push_ok rt rng ~sender:v);
    Alcotest.(check bool) "pull matches burst state" expected
      (Fault.pull_ok rt rng ~sender:v)
  done

(* --- total loss at the plan level --- *)

let test_plan_total_link_loss () =
  let fault = Fault.plan ~link_loss:1. () in
  let res = run ~fault ~graph:(Classic.complete 32) ~horizon:30 ~seed:3 () in
  Alcotest.(check int) "only the source knows" 1 res.Engine.informed

let test_push_loss_blocks_push_only () =
  let fault = Fault.plan ~push_loss:1. () in
  let res = run ~fault ~graph:(Classic.complete 32) ~horizon:30 ~seed:4 () in
  Alcotest.(check int) "push-only protocol silenced" 1 res.Engine.informed

let test_push_loss_spares_pull () =
  (* Asymmetry: total push loss must not affect a pull-only protocol. *)
  let fault = Fault.plan ~push_loss:1. () in
  let res =
    run ~fault ~push:false ~pull:true ~graph:(Classic.complete 32) ~horizon:60
      ~seed:5 ()
  in
  Alcotest.(check bool) "pull still completes" true (Engine.success res)

let test_pull_loss_blocks_pull_only () =
  let fault = Fault.plan ~pull_loss:1. () in
  let res =
    run ~fault ~push:false ~pull:true ~graph:(Classic.complete 32) ~horizon:30
      ~seed:6 ()
  in
  Alcotest.(check int) "pull-only protocol silenced" 1 res.Engine.informed

(* --- crash schedules --- *)

let survivors plan seed =
  let rt = Fault.start plan ~capacity:50 in
  let rng = Rng.create seed in
  let deg v = v and alive _ = true and informed v = v < 10 in
  for r = 1 to 10 do
    Fault.begin_round rt ~rng ~round:r ~degree:deg ~alive ~informed
  done;
  List.init 50 (Fault.active rt)

let test_crash_schedule_deterministic () =
  let plan =
    Fault.plan ~crash_rate:0.05
      ~strike:(Fault.strike ~at_round:3 ~count:5 ())
      ()
  in
  Alcotest.(check (list bool))
    "same seed, same crash schedule" (survivors plan 11) (survivors plan 11);
  let up = List.filter (fun b -> b) (survivors plan 11) in
  Alcotest.(check bool) "somebody crashed" true (List.length up < 50)

let test_highest_degree_strike_deterministic () =
  (* Degree of node v is v: the strike must kill exactly 47, 48, 49,
     whatever the rng seed. *)
  let plan =
    Fault.plan
      ~strike:(Fault.strike ~adversary:Fault.Highest_degree ~at_round:1
                 ~count:3 ())
      ()
  in
  List.iter
    (fun seed ->
      let alive = survivors plan seed in
      List.iteri
        (fun v up ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d" v)
            (v < 47) up)
        alive)
    [ 1; 2; 3 ]

let test_frontier_strike_hits_informed () =
  (* Only informed nodes (ids < 10 in [survivors]) are eligible. *)
  let plan =
    Fault.plan
      ~strike:(Fault.strike ~adversary:Fault.Frontier ~at_round:1 ~count:50 ())
      ()
  in
  let alive = survivors plan 8 in
  List.iteri
    (fun v up -> Alcotest.(check bool) "informed down, rest up" (v >= 10) up)
    alive

let test_frontier_strike_kills_rumor () =
  (* Killing the whole frontier right after the first round leaves no
     copy of the rumor anywhere: no protocol can recover. *)
  let fault =
    Fault.plan
      ~strike:(Fault.strike ~adversary:Fault.Frontier ~at_round:2 ~count:32 ())
      ()
  in
  let res = run ~fault ~graph:(Classic.complete 32) ~horizon:40 ~seed:9 () in
  Alcotest.(check int) "no informed survivor" 0 res.Engine.informed;
  Alcotest.(check bool) "failure" false (Engine.success res)

let test_crash_stop_shrinks_population () =
  let fault = Fault.plan ~crash_rate:0.05 () in
  let res = run ~fault ~graph:(Classic.complete 64) ~horizon:30 ~seed:10 () in
  Alcotest.(check bool) "population shrank" true (res.Engine.population < 64)

let test_recovery_restores_nodes () =
  (* With certain recovery, a crash never lasts past the next round:
     down_count after begin_round can only reflect this round's crashes. *)
  let plan = Fault.plan ~crash_rate:0.3 ~recover_rate:1. () in
  let rt = Fault.start plan ~capacity:100 in
  let rng = Rng.create 12 in
  let deg _ = 0 and alive _ = true and informed _ = false in
  let saw_recovery = ref false in
  let prev = ref 0 in
  for r = 1 to 40 do
    Fault.begin_round rt ~rng ~round:r ~degree:deg ~alive ~informed;
    if Fault.down_count rt < !prev then saw_recovery := true;
    prev := Fault.down_count rt
  done;
  Alcotest.(check bool) "recoveries happened" true !saw_recovery;
  Alcotest.(check bool) "may_recover reported" true (Fault.may_recover rt)

(* --- Fault.none bit-identity --- *)

let test_none_roundtrip () =
  (* [Fault.none] must consume no randomness: a run with it is
     bit-identical to a run with no fault argument at all. *)
  let base = run ~graph:(Classic.complete 64) ~horizon:30 ~seed:99 () in
  let with_none =
    run ~fault:Fault.none ~graph:(Classic.complete 64) ~horizon:30 ~seed:99 ()
  in
  Alcotest.(check int) "same informed" base.Engine.informed
    with_none.Engine.informed;
  Alcotest.(check int) "same transmissions" (Engine.transmissions base)
    (Engine.transmissions with_none);
  Alcotest.(check int) "same rounds" base.Engine.rounds with_none.Engine.rounds;
  Alcotest.(check (option int)) "same completion" base.Engine.completion_round
    with_none.Engine.completion_round;
  Alcotest.(check int) "same channels" base.Engine.channels
    with_none.Engine.channels

let test_empty_plan_equals_none () =
  Alcotest.(check bool) "plan () = none" true (Fault.plan () = Fault.none)

(* --- the stateless view: per-direction loss under Async --- *)

let test_delivery_ok_directional () =
  let rng = Rng.create 21 in
  let push_lossy = Fault.plan ~push_loss:1. () in
  let pull_lossy = Fault.plan ~pull_loss:1. () in
  for _ = 1 to 50 do
    Alcotest.(check bool) "push loss kills pushes" false
      (Fault.delivery_ok ~dir:`Push push_lossy rng);
    Alcotest.(check bool) "push loss spares pulls" true
      (Fault.delivery_ok ~dir:`Pull push_lossy rng);
    Alcotest.(check bool) "undirected view skips push_loss" true
      (Fault.delivery_ok push_lossy rng);
    Alcotest.(check bool) "pull loss kills pulls" false
      (Fault.delivery_ok ~dir:`Pull pull_lossy rng);
    Alcotest.(check bool) "pull loss spares pushes" true
      (Fault.delivery_ok ~dir:`Push pull_lossy rng)
  done

let test_async_honours_directional_loss () =
  let silenced =
    Async.run
      ~fault:(Fault.plan ~push_loss:1. ())
      ~rng:(Rng.create 22) ~topology:(Topology.of_graph (Classic.complete 32))
      ~protocol:(pusher ~horizon:30 ())
      ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "push loss silences an async pusher" 1
    silenced.Async.informed;
  let spared =
    Async.run
      ~fault:(Fault.plan ~pull_loss:1. ())
      ~rng:(Rng.create 22) ~topology:(Topology.of_graph (Classic.complete 32))
      ~protocol:(pusher ~horizon:30 ())
      ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "pull loss spares an async pusher" 32
    spared.Async.informed

(* A Poisson clock has no rounds to tick a runtime on: bursts, node
   faults and partitions are refused, never silently dropped. The
   independent components still run, on an implicit view as on a graph. *)
let test_async_rejects_round_faults () =
  let run fault =
    Async.run ~fault ~rng:(Rng.create 23)
      ~topology:(Topology.implicit_regular ~seed:5 ~n:256 ~d:6)
      ~protocol:(pusher ~horizon:30 ())
      ~sources:[ 0 ] ()
  in
  let refused =
    Invalid_argument
      "Async.run: bursts, node faults and partitions need synchronous rounds"
  in
  List.iter
    (fun (what, fault) ->
      Alcotest.check_raises what refused (fun () -> ignore (run fault)))
    [
      ("burst", Fault.plan ~burst:(Fault.burst ~loss:0.2 ~burst_len:3.) ());
      ("crash rate", Fault.plan ~crash_rate:0.01 ());
      ("strike", Fault.plan ~strike:(Fault.strike ~at_round:2 ~count:3 ()) ());
      ( "partition",
        Fault.plan ~partition:(Fault.partition ~split_at:2 ~heal_at:5 ()) () );
    ];
  let lossy = run (Fault.plan ~call_failure:0.1 ~link_loss:0.1 ()) in
  Alcotest.(check int) "communication faults still run" 256
    lossy.Async.informed

(* --- regression: crash recovering after completion needs repair ---

   Victims crash after the broadcast completes and recover (with
   amnesia) only once every pusher has stopped transmitting: without a
   repair layer they stay uninformed forever, and [Repair.self_heal]
   must close exactly that gap. *)

let bounded_pusher ~push_until ~horizon =
  {
    Protocol.name = "bounded-push";
    selector = Selector.Uniform { fanout = 1 };
    horizon;
    init = (fun ~informed -> informed);
    decide =
      (fun st ~round ->
        ignore st;
        { Protocol.push = round <= push_until; pull = false });
    receive = (fun _ ~round -> ignore round; true);
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > horizon);
    packed = None;
  }

let test_recovery_after_completion_needs_repair () =
  let n = 64 in
  let fault =
    Fault.plan ~strike:(Fault.strike ~at_round:18 ~count:4 ()) ~recover_rate:1.
      ()
  in
  let protocol = bounded_pusher ~push_until:16 ~horizon:20 in
  let bare =
    Engine.run ~fault ~forget_on_recover:true ~rng:(Rng.create 41)
      ~topology:(Topology.of_graph (Classic.complete n))
      ~protocol ~sources:[ 0 ] ()
  in
  (match bare.Engine.completion_round with
  | Some c -> Alcotest.(check bool) "completed before the strike" true (c < 18)
  | None -> Alcotest.fail "broadcast did not complete before the strike");
  Alcotest.(check int) "victims recovered" n bare.Engine.population;
  Alcotest.(check int) "and stay uninformed without repair" (n - 4)
    bare.Engine.informed;
  let healed =
    Repair.heal ~fault
      ~config:(Repair.config ~n ())
      ~rng:(Rng.create 41) ~graph:(Classic.complete n) ~protocol ~source:0 ()
  in
  Alcotest.(check bool) "repair re-informs the amnesiacs" true
    (Engine.success healed);
  Alcotest.(check int) "nobody left behind" n healed.Engine.informed;
  Alcotest.(check bool) "within one or two epochs" true
    (Engine.epochs_used healed >= 1
    && Engine.epochs_used healed <= (Repair.config ~n ()).Repair.max_epochs)

(* The runtime keeps its per-node state (burst chain, crashed set,
   partition side) in one bit per node for each mode the plan uses:
   at 10^7 nodes that is under 4 MB, where word-sized flags took 240. *)
let test_runtime_footprint () =
  let capacity = 100_000 in
  let plan =
    Fault.plan
      ~burst:(Fault.burst ~loss:0.2 ~burst_len:4.)
      ~crash_rate:0.01 ~recover_rate:0.1
      ~partition:(Fault.partition ~split_at:1 ~heal_at:5 ())
      ()
  in
  let rt = Fault.start plan ~capacity in
  let rng = Rng.create 5 in
  for round = 1 to 3 do
    Fault.begin_round rt ~rng ~round ~degree:(fun _ -> 8)
      ~alive:(fun _ -> true) ~informed:(fun _ -> false)
  done;
  let words = Obj.reachable_words (Obj.repr rt) in
  (* Three bits per node, plus the plan and the record headers. *)
  if words > (3 * capacity / 64) + 64 then
    Alcotest.failf "runtime of %d nodes spans %d words" capacity words

let () =
  Alcotest.run "rumor_fault"
    [
      ( "constructors",
        [
          Alcotest.test_case "burst validation" `Quick test_burst_validation;
          Alcotest.test_case "strike validation" `Quick test_strike_validation;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "empty plan = none" `Quick
            test_empty_plan_equals_none;
        ] );
      ( "burst",
        [
          Alcotest.test_case "stationary occupancy" `Quick
            test_burst_stationary;
          Alcotest.test_case "bad state drops sends" `Quick
            test_bursting_sender_drops;
        ] );
      ( "loss",
        [
          Alcotest.test_case "total link loss" `Quick test_plan_total_link_loss;
          Alcotest.test_case "push loss blocks push" `Quick
            test_push_loss_blocks_push_only;
          Alcotest.test_case "push loss spares pull" `Quick
            test_push_loss_spares_pull;
          Alcotest.test_case "pull loss blocks pull" `Quick
            test_pull_loss_blocks_pull_only;
          Alcotest.test_case "delivery_ok directions" `Quick
            test_delivery_ok_directional;
          Alcotest.test_case "async directional loss" `Quick
            test_async_honours_directional_loss;
          Alcotest.test_case "async rejects round-ticked faults" `Quick
            test_async_rejects_round_faults;
        ] );
      ( "crash",
        [
          Alcotest.test_case "deterministic schedule" `Quick
            test_crash_schedule_deterministic;
          Alcotest.test_case "highest-degree strike" `Quick
            test_highest_degree_strike_deterministic;
          Alcotest.test_case "frontier strike targets informed" `Quick
            test_frontier_strike_hits_informed;
          Alcotest.test_case "frontier strike kills rumor" `Quick
            test_frontier_strike_kills_rumor;
          Alcotest.test_case "crash-stop shrinks population" `Quick
            test_crash_stop_shrinks_population;
          Alcotest.test_case "recovery restores nodes" `Quick
            test_recovery_restores_nodes;
          Alcotest.test_case "post-completion recovery needs repair" `Quick
            test_recovery_after_completion_needs_repair;
          Alcotest.test_case "runtime state is one bit per node" `Quick
            test_runtime_footprint;
        ] );
      ( "identity",
        [ Alcotest.test_case "none round-trips" `Quick test_none_roundtrip ] );
    ]
