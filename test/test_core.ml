(* Tests for the rumor_core library: parameters, phase schedules, the
   paper's Algorithms 1 & 2, and the baseline protocols. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Protocol = Rumor_sim.Protocol
module Selector = Rumor_sim.Selector
module Engine = Rumor_sim.Engine
module Params = Rumor_core.Params
module Phase = Rumor_core.Phase
module Algorithm = Rumor_core.Algorithm
module Baselines = Rumor_core.Baselines
module Run = Rumor_core.Run

(* --- Params --- *)

let test_params_defaults () =
  let p = Params.make ~n_estimate:1024 ~d:8 () in
  Alcotest.(check int) "fanout default" 4 p.Params.fanout;
  Alcotest.(check (float 1e-9)) "alpha default" 1.0 p.Params.alpha

let test_params_validation () =
  Alcotest.check_raises "tiny n" (Invalid_argument "Params.make: n_estimate < 4")
    (fun () -> ignore (Params.make ~n_estimate:3 ~d:4 ()));
  Alcotest.check_raises "bad d" (Invalid_argument "Params.make: d < 1")
    (fun () -> ignore (Params.make ~n_estimate:16 ~d:0 ()));
  Alcotest.check_raises "bad alpha" (Invalid_argument "Params.make: alpha <= 0")
    (fun () -> ignore (Params.make ~alpha:0. ~n_estimate:16 ~d:4 ()));
  Alcotest.check_raises "bad fanout" (Invalid_argument "Params.make: fanout < 1")
    (fun () -> ignore (Params.make ~fanout:0 ~n_estimate:16 ~d:4 ()))

let test_log_helpers () =
  Alcotest.(check (float 1e-9)) "log2 8" 3. (Params.log2 8.);
  Alcotest.(check int) "ceil_log2 1" 0 (Params.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Params.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Params.ceil_log2 3);
  Alcotest.(check int) "ceil_log2 1024" 10 (Params.ceil_log2 1024);
  Alcotest.(check int) "ceil_log2 1025" 11 (Params.ceil_log2 1025);
  Alcotest.check_raises "ceil_log2 0" (Invalid_argument "Params.ceil_log2: n < 1")
    (fun () -> ignore (Params.ceil_log2 0))

let test_loglog_floor () =
  (* For n = 2^16, log2 log2 n = 4. *)
  let p = Params.make ~n_estimate:65536 ~d:8 () in
  Alcotest.(check (float 1e-9)) "loglog 2^16" 4. (Params.loglog p);
  (* Floored at 1 for tiny n. *)
  let q = Params.make ~n_estimate:4 ~d:2 () in
  Alcotest.(check (float 1e-9)) "floor" 1. (Params.loglog q)

(* --- Phase --- *)

let test_schedule_small () =
  let p = Params.make ~alpha:1.0 ~n_estimate:65536 ~d:8 () in
  let s = Phase.schedule p Phase.Small in
  Alcotest.(check int) "p1 = ceil(log n)" 16 s.Phase.p1_end;
  Alcotest.(check int) "p2 = p1 + ceil(log log n)" 20 s.Phase.p2_end;
  Alcotest.(check int) "p3 is one round" 21 s.Phase.p3_end;
  (* Phase 4 is exactly ceil(alpha log n) = 16 rounds after the pull
     round: 21 + 16 = 37 (not the old 2*ceil(a lg) + ceil(a llg) = 36,
     which undercounted by the ceiling interaction). *)
  Alcotest.(check int) "last = p3 + ceil(log n)" 37 s.Phase.last

let test_schedule_large () =
  let p = Params.make ~alpha:1.0 ~n_estimate:65536 ~d:32 () in
  let s = Phase.schedule p Phase.Large in
  Alcotest.(check int) "p1" 16 s.Phase.p1_end;
  Alcotest.(check int) "p2" 20 s.Phase.p2_end;
  Alcotest.(check int) "p3 = log n + 2 log log n" 24 s.Phase.p3_end;
  Alcotest.(check int) "no phase 4" s.Phase.p3_end s.Phase.last

let test_schedule_monotone () =
  List.iter
    (fun n_estimate ->
      List.iter
        (fun variant ->
          let p = Params.make ~n_estimate ~d:6 () in
          let s = Phase.schedule p variant in
          Alcotest.(check bool) "boundaries ordered" true
            (0 < s.Phase.p1_end && s.Phase.p1_end < s.Phase.p2_end
            && s.Phase.p2_end < s.Phase.p3_end
            && s.Phase.p3_end <= s.Phase.last))
        [ Phase.Small; Phase.Large ])
    [ 4; 16; 100; 1000; 65536; 1_000_000 ]

let test_phase_of () =
  let p = Params.make ~alpha:1.0 ~n_estimate:65536 ~d:8 () in
  let s = Phase.schedule p Phase.Small in
  let check round expected =
    Alcotest.(check bool)
      (Printf.sprintf "round %d" round)
      true
      (Phase.phase_of s ~round = expected)
  in
  check 1 Phase.Phase1;
  check 16 Phase.Phase1;
  check 17 Phase.Phase2;
  check 20 Phase.Phase2;
  check 21 Phase.Phase3;
  check 22 Phase.Phase4;
  check 37 Phase.Phase4;
  check 38 Phase.Finished

let test_phase_of_large () =
  let p = Params.make ~alpha:1.0 ~n_estimate:65536 ~d:32 () in
  let s = Phase.schedule p Phase.Large in
  Alcotest.(check bool) "pull phase" true (Phase.phase_of s ~round:22 = Phase.Phase3);
  Alcotest.(check bool) "finished" true (Phase.phase_of s ~round:25 = Phase.Finished)

let test_auto_variant () =
  let small = Params.make ~n_estimate:65536 ~d:8 () in
  Alcotest.(check bool) "d=8 small" true (Phase.auto_variant small = Phase.Small);
  let large = Params.make ~n_estimate:65536 ~d:16 () in
  Alcotest.(check bool) "d=16 large" true (Phase.auto_variant large = Phase.Large)

let test_variant_to_string () =
  Alcotest.(check string) "small" "small-degree" (Phase.variant_to_string Phase.Small);
  Alcotest.(check string) "large" "large-degree" (Phase.variant_to_string Phase.Large)

(* --- Algorithm state machine (unit-level) --- *)

let small_schedule () =
  Algorithm.schedule_of (Params.make ~alpha:1.0 ~n_estimate:65536 ~d:8 ())
    (Some Phase.Small)

let small_protocol () =
  Algorithm.make ~variant:Phase.Small
    (Params.make ~alpha:1.0 ~n_estimate:65536 ~d:8 ())

let test_algorithm_phase1_pushes_once () =
  let p = small_protocol () in
  let st = Algorithm.Informed { received = 5 } in
  let d6 = p.Protocol.decide st ~round:6 in
  let d7 = p.Protocol.decide st ~round:7 in
  Alcotest.(check bool) "pushes the round after receipt" true d6.Protocol.push;
  Alcotest.(check bool) "silent afterwards in phase 1" false d7.Protocol.push;
  Alcotest.(check bool) "no pull in phase 1" false d6.Protocol.pull

let test_algorithm_source_pushes_round1 () =
  let p = small_protocol () in
  let st = p.Protocol.init ~informed:true in
  let d = p.Protocol.decide st ~round:1 in
  Alcotest.(check bool) "source pushes in round 1" true d.Protocol.push

let test_algorithm_phase2_all_push () =
  let p = small_protocol () in
  (* Any informed node pushes in phase 2, regardless of receipt round. *)
  List.iter
    (fun received ->
      let st = Algorithm.Informed { received } in
      let d = p.Protocol.decide st ~round:18 in
      Alcotest.(check bool) "pushes in phase 2" true d.Protocol.push)
    [ 0; 3; 17 ]

let test_algorithm_phase3_pulls () =
  let p = small_protocol () in
  let st = Algorithm.Informed { received = 2 } in
  let d = p.Protocol.decide st ~round:21 in
  Alcotest.(check bool) "pull round" true d.Protocol.pull;
  Alcotest.(check bool) "no push" false d.Protocol.push

let test_algorithm_phase4_only_active () =
  let p = small_protocol () in
  let s = small_schedule () in
  let veteran = Algorithm.Informed { received = 2 } in
  let active = Algorithm.Informed { received = s.Phase.p3_end } in
  let dv = p.Protocol.decide veteran ~round:25 in
  let da = p.Protocol.decide active ~round:25 in
  Alcotest.(check bool) "veteran silent" false (dv.Protocol.push || dv.Protocol.pull);
  Alcotest.(check bool) "active pushes" true da.Protocol.push

let test_algorithm_uninformed_silent () =
  let p = small_protocol () in
  for round = 1 to 36 do
    let d = p.Protocol.decide Algorithm.Uninformed ~round in
    Alcotest.(check bool) "uninformed silent" false (d.Protocol.push || d.Protocol.pull)
  done

let test_algorithm_receive_sets_round () =
  let p = small_protocol () in
  match p.Protocol.receive Algorithm.Uninformed ~round:9 with
  | Algorithm.Informed { received } -> Alcotest.(check int) "receipt round" 9 received
  | Algorithm.Uninformed -> Alcotest.fail "receive did not inform"

let test_algorithm_receive_idempotent () =
  let p = small_protocol () in
  let st = Algorithm.Informed { received = 3 } in
  match p.Protocol.receive st ~round:9 with
  | Algorithm.Informed { received } ->
      Alcotest.(check int) "first receipt wins" 3 received
  | Algorithm.Uninformed -> Alcotest.fail "lost state"

let test_algorithm_quiescent () =
  let p = small_protocol () in
  let s = small_schedule () in
  let veteran = Algorithm.Informed { received = 2 } in
  let active = Algorithm.Informed { received = s.Phase.p3_end } in
  Alcotest.(check bool) "veteran quiet in phase 4" true
    (p.Protocol.quiescent veteran ~round:(s.Phase.p3_end + 1));
  Alcotest.(check bool) "active not quiet in phase 4" false
    (p.Protocol.quiescent active ~round:(s.Phase.p3_end + 1));
  Alcotest.(check bool) "all quiet after the end" true
    (p.Protocol.quiescent active ~round:(s.Phase.last + 1));
  Alcotest.(check bool) "not quiet in phase 2" false
    (p.Protocol.quiescent veteran ~round:18)

let test_algorithm_horizon () =
  let p = small_protocol () in
  let s = small_schedule () in
  Alcotest.(check int) "horizon is schedule end" s.Phase.last p.Protocol.horizon

let test_algorithm_default_selector () =
  let p = Algorithm.make (Params.make ~n_estimate:1024 ~d:8 ()) in
  Alcotest.(check int) "fanout 4" 4 (Selector.fanout p.Protocol.selector)

(* --- Algorithm end-to-end --- *)

let broadcast_once ~seed ~n ~d ?(alpha = 1.0) ?variant () =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let params = Params.make ~alpha ~n_estimate:n ~d () in
  let protocol = Algorithm.make ?variant params in
  Run.once ~rng ~graph:g ~protocol ~source:(Run.random_source rng g) ()

let test_algorithm1_informs_all () =
  for seed = 1 to 10 do
    let res = broadcast_once ~seed ~n:1024 ~d:6 () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d complete" seed)
      true (Engine.success res)
  done

let test_algorithm2_informs_all () =
  for seed = 1 to 5 do
    let res = broadcast_once ~seed ~n:1024 ~d:20 ~variant:Phase.Large () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d complete" seed)
      true (Engine.success res)
  done

let test_algorithm_message_bound () =
  (* O(n log log n): with alpha=1 and fanout 4 the constant is below
     4 * (1 + alpha + alpha*loglog n) + pull overhead; assert a generous
     explicit cap and that it beats a trivial n*log n schedule cost. *)
  let n = 4096 in
  let res = broadcast_once ~seed:42 ~n ~d:8 () in
  let per_node = float_of_int (Engine.transmissions res) /. float_of_int n in
  let loglog = Params.log2 (Params.log2 (float_of_int n)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f per node <= 8(1 + loglog)" per_node)
    true
    (per_node <= 8. *. (1. +. loglog));
  Alcotest.(check bool) "completes" true (Engine.success res)

let test_algorithm_rounds_bound () =
  let n = 4096 in
  let res = broadcast_once ~seed:43 ~n ~d:8 () in
  let s =
    Algorithm.schedule_of (Params.make ~alpha:1.0 ~n_estimate:n ~d:8 ()) None
  in
  Alcotest.(check bool) "rounds within schedule" true
    (res.Engine.rounds <= s.Phase.last)

let test_algorithm_wrong_estimate_still_works () =
  (* The paper only needs n to within a constant factor: run with the
     estimate 4x too small and 4x too large. *)
  let rng = Rng.create 44 in
  let n = 2048 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  List.iter
    (fun est ->
      let params = Params.make ~alpha:1.5 ~n_estimate:est ~d:8 () in
      let protocol = Algorithm.make params in
      let res = Run.once ~rng ~graph:g ~protocol ~source:0 () in
      Alcotest.(check bool)
        (Printf.sprintf "estimate %d works" est)
        true (Engine.success res))
    [ n / 4; n * 4 ]

let test_sequentialised_variant () =
  let rng = Rng.create 45 in
  let n = 1024 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let protocol = Algorithm.sequentialised (Params.make ~n_estimate:n ~d:8 ()) in
  Alcotest.(check int) "fanout 1" 1 (Selector.fanout protocol.Protocol.selector);
  let res = Run.once ~rng ~graph:g ~protocol ~source:0 () in
  Alcotest.(check bool) "memory variant completes" true (Engine.success res)

let test_algorithm_with_failures () =
  let rng = Rng.create 46 in
  let n = 2048 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let params = Params.make ~alpha:2.0 ~n_estimate:n ~d:8 () in
  let fault = Rumor_sim.Fault.make ~link_loss:0.1 () in
  let res =
    Engine.run ~fault ~rng ~topology:(Rumor_sim.Topology.of_graph g)
      ~protocol:(Algorithm.make params) ~sources:[ 0 ] ()
  in
  Alcotest.(check bool) "tolerates 10% loss" true (Engine.success res)

(* --- Baselines --- *)

let test_push_completes () =
  let rng = Rng.create 50 in
  let g = Regular.sample_connected ~rng ~n:512 ~d:6 Regular.Pairing in
  let res =
    Run.once ~stop_when_complete:true ~rng ~graph:g
      ~protocol:(Baselines.push ~horizon:300 ())
      ~source:0 ()
  in
  Alcotest.(check bool) "push completes" true (Engine.success res);
  Alcotest.(check int) "push only" 0 res.Engine.pull_tx

let test_pull_completes_on_complete_graph () =
  let rng = Rng.create 51 in
  let res =
    Run.once ~stop_when_complete:true ~rng ~graph:(Classic.complete 128)
      ~protocol:(Baselines.pull ~horizon:300 ())
      ~source:0 ()
  in
  Alcotest.(check bool) "pull completes" true (Engine.success res);
  Alcotest.(check int) "pull only" 0 res.Engine.push_tx

let test_push_pull_faster_than_push () =
  let rng = Rng.create 52 in
  let g = Regular.sample_connected ~rng ~n:512 ~d:8 Regular.Pairing in
  let mean_rounds protocol =
    let total = ref 0 in
    for seed = 1 to 5 do
      let rng = Rng.create (100 + seed) in
      let res =
        Run.once ~stop_when_complete:true ~rng ~graph:g ~protocol:(protocol ())
          ~source:0 ()
      in
      total := !total + res.Engine.rounds
    done;
    !total
  in
  let push = mean_rounds (fun () -> Baselines.push ~horizon:500 ()) in
  let both = mean_rounds (fun () -> Baselines.push_pull ~horizon:500 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "push-pull (%d) <= push (%d)" both push)
    true (both <= push)

let test_push_pull_age_phases () =
  let p = Baselines.push_pull_age ~push_rounds:5 ~total_rounds:10 () in
  let st = Algorithm.Informed { received = 0 } in
  let early = p.Protocol.decide st ~round:3 in
  let late = p.Protocol.decide st ~round:8 in
  let done_ = p.Protocol.decide st ~round:11 in
  Alcotest.(check bool) "early pushes and pulls" true
    (early.Protocol.push && early.Protocol.pull);
  Alcotest.(check bool) "late pulls only" true
    ((not late.Protocol.push) && late.Protocol.pull);
  Alcotest.(check bool) "done silent" false (done_.Protocol.push || done_.Protocol.pull);
  Alcotest.(check bool) "quiescent after end" true
    (p.Protocol.quiescent st ~round:11)

let test_push_pull_age_validation () =
  Alcotest.check_raises "bad rounds"
    (Invalid_argument "Baselines.push_pull_age: total_rounds < push_rounds")
    (fun () -> ignore (Baselines.push_pull_age ~push_rounds:5 ~total_rounds:3 ()))

let test_quasirandom_completes () =
  let rng = Rng.create 53 in
  let g = Classic.hypercube 8 in
  let res =
    Run.once ~stop_when_complete:true ~rng ~graph:g
      ~protocol:(Baselines.quasirandom ~fanout:1 ~horizon:300)
      ~source:0 ()
  in
  Alcotest.(check bool) "quasirandom completes on hypercube" true
    (Engine.success res)

let test_baseline_names () =
  Alcotest.(check string) "push name" "push-f1"
    (Baselines.push ~horizon:5 ()).Protocol.name;
  Alcotest.(check string) "age name" "push-pull-age-f1"
    (Baselines.push_pull_age ~push_rounds:1 ~total_rounds:2 ()).Protocol.name

(* --- Run helpers --- *)

let test_random_source_range () =
  let g = Classic.complete 10 in
  let rng = Rng.create 79 in
  for _ = 1 to 100 do
    let s = Run.random_source rng g in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 10)
  done

(* --- qcheck properties --- *)

let prop_schedule_scales_with_alpha =
  QCheck.Test.make ~count:50 ~name:"larger alpha gives longer phases"
    QCheck.(pair (int_range 16 100000) (int_range 1 4))
    (fun (n_estimate, mult) ->
      let base = Params.make ~alpha:1.0 ~n_estimate ~d:6 () in
      let big = Params.make ~alpha:(float_of_int (1 + mult)) ~n_estimate ~d:6 () in
      let s1 = Phase.schedule base Phase.Small in
      let s2 = Phase.schedule big Phase.Small in
      s2.Phase.p1_end >= s1.Phase.p1_end && s2.Phase.last >= s1.Phase.last)

let prop_phase_of_total =
  QCheck.Test.make ~count:100 ~name:"phase_of is total and ordered"
    QCheck.(pair (int_range 4 1000000) bool)
    (fun (n_estimate, small) ->
      let p = Params.make ~n_estimate ~d:6 () in
      let v = if small then Phase.Small else Phase.Large in
      let s = Phase.schedule p v in
      let order ph =
        match ph with
        | Phase.Phase1 -> 1
        | Phase.Phase2 -> 2
        | Phase.Phase3 -> 3
        | Phase.Phase4 -> 4
        | Phase.Finished -> 5
      in
      let ok = ref true in
      for round = 1 to s.Phase.last + 2 do
        let here = order (Phase.phase_of s ~round) in
        let next = order (Phase.phase_of s ~round:(round + 1)) in
        if next < here then ok := false
      done;
      !ok)

let prop_phase_lengths_match_paper =
  (* The paper's formulas, checked length by length: phase 1 is
     ceil(a lg n) rounds, phase 2 is ceil(a(lg+llg)) - ceil(a lg),
     phase 3 is one round (Small), phase 4 is exactly ceil(a lg n)
     further rounds; Large runs ~2a llg pull rounds after phase 2,
     up to ceiling slack. *)
  QCheck.Test.make ~count:200 ~name:"phase lengths match the paper's formulas"
    QCheck.(pair (int_range 4 10_000_000) (int_range 1 16))
    (fun (n_estimate, alpha_quarters) ->
      let alpha = float_of_int alpha_quarters /. 4. in
      let p = Params.make ~alpha ~n_estimate ~d:6 () in
      let lg = Params.log2 (float_of_int n_estimate) in
      let llg = Params.loglog p in
      let ceil_i x = int_of_float (ceil x) in
      let s = Phase.schedule p Phase.Small in
      let small_ok =
        s.Phase.p1_end = ceil_i (alpha *. lg)
        && s.Phase.p2_end = ceil_i (alpha *. (lg +. llg))
        && s.Phase.p3_end = s.Phase.p2_end + 1
        && s.Phase.last - s.Phase.p3_end = ceil_i (alpha *. lg)
      in
      let l = Phase.schedule p Phase.Large in
      let pull_len = l.Phase.last - l.Phase.p2_end in
      let large_ok =
        l.Phase.last = l.Phase.p3_end
        && abs_float (float_of_int pull_len -. (alpha *. llg)) <= 2.
      in
      small_ok && large_ok)

let prop_algorithm_decide_never_pushes_and_pulls =
  QCheck.Test.make ~count:100 ~name:"algorithm never pushes and pulls together"
    QCheck.(triple (int_range 4 100000) (int_range 0 60) (int_range 1 60))
    (fun (n_estimate, received, round) ->
      let p = Algorithm.make (Params.make ~n_estimate ~d:6 ()) in
      let d = p.Protocol.decide (Algorithm.Informed { received }) ~round in
      not (d.Protocol.push && d.Protocol.pull))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_schedule_scales_with_alpha;
      prop_phase_of_total;
      prop_phase_lengths_match_paper;
      prop_algorithm_decide_never_pushes_and_pulls;
    ]

let () =
  Alcotest.run "rumor_core"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "log helpers" `Quick test_log_helpers;
          Alcotest.test_case "loglog floor" `Quick test_loglog_floor;
        ] );
      ( "phase",
        [
          Alcotest.test_case "schedule small" `Quick test_schedule_small;
          Alcotest.test_case "schedule large" `Quick test_schedule_large;
          Alcotest.test_case "schedule monotone" `Quick test_schedule_monotone;
          Alcotest.test_case "phase_of" `Quick test_phase_of;
          Alcotest.test_case "phase_of large" `Quick test_phase_of_large;
          Alcotest.test_case "auto variant" `Quick test_auto_variant;
          Alcotest.test_case "variant strings" `Quick test_variant_to_string;
        ] );
      ( "algorithm-unit",
        [
          Alcotest.test_case "phase1 pushes once" `Quick
            test_algorithm_phase1_pushes_once;
          Alcotest.test_case "source pushes round 1" `Quick
            test_algorithm_source_pushes_round1;
          Alcotest.test_case "phase2 all push" `Quick test_algorithm_phase2_all_push;
          Alcotest.test_case "phase3 pulls" `Quick test_algorithm_phase3_pulls;
          Alcotest.test_case "phase4 only active" `Quick
            test_algorithm_phase4_only_active;
          Alcotest.test_case "uninformed silent" `Quick test_algorithm_uninformed_silent;
          Alcotest.test_case "receive sets round" `Quick
            test_algorithm_receive_sets_round;
          Alcotest.test_case "receive idempotent" `Quick
            test_algorithm_receive_idempotent;
          Alcotest.test_case "quiescent" `Quick test_algorithm_quiescent;
          Alcotest.test_case "horizon" `Quick test_algorithm_horizon;
          Alcotest.test_case "default selector" `Quick test_algorithm_default_selector;
        ] );
      ( "algorithm-e2e",
        [
          Alcotest.test_case "alg1 informs all" `Slow test_algorithm1_informs_all;
          Alcotest.test_case "alg2 informs all" `Slow test_algorithm2_informs_all;
          Alcotest.test_case "message bound" `Slow test_algorithm_message_bound;
          Alcotest.test_case "rounds bound" `Slow test_algorithm_rounds_bound;
          Alcotest.test_case "wrong estimate" `Slow
            test_algorithm_wrong_estimate_still_works;
          Alcotest.test_case "sequentialised" `Slow test_sequentialised_variant;
          Alcotest.test_case "with failures" `Slow test_algorithm_with_failures;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "push completes" `Quick test_push_completes;
          Alcotest.test_case "pull completes" `Quick
            test_pull_completes_on_complete_graph;
          Alcotest.test_case "push-pull faster" `Slow test_push_pull_faster_than_push;
          Alcotest.test_case "age phases" `Quick test_push_pull_age_phases;
          Alcotest.test_case "age validation" `Quick test_push_pull_age_validation;
          Alcotest.test_case "quasirandom" `Quick test_quasirandom_completes;
          Alcotest.test_case "names" `Quick test_baseline_names;
        ] );
      ( "run",
        [
          Alcotest.test_case "random source" `Quick test_random_source_range;
        ] );
      ("properties", qcheck_cases);
    ]
