(* Tests for the chaos layer: recurring strikes and partition windows
   in the fault plan, the runtime invariant monitor, partition
   cut-stacking enforcement, the new scenario keys with raw-text parse
   errors, and the chaos soak harness (digests, shrinking, repro
   artifacts). *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Regular = Rumor_gen.Regular
module Fault = Rumor_sim.Fault
module Invariant = Rumor_sim.Invariant
module Engine = Rumor_sim.Engine
module Topology = Rumor_test_support.Topology
module Overlay = Rumor_p2p.Overlay
module Partition = Rumor_p2p.Partition
module Scenario = Rumor_cli.Scenario
module Chaos = Rumor_cli.Chaos
module Run = Rumor_core.Run
module Algorithm = Rumor_core.Algorithm
module Params = Rumor_core.Params

(* --- recurring strikes ------------------------------------------- *)

let test_strike_fires () =
  let s = Fault.strike ~at_round:3 ~count:1 () in
  Alcotest.(check bool) "one-shot at 3" true (Fault.strike_fires s ~round:3);
  Alcotest.(check bool) "one-shot not 6" false (Fault.strike_fires s ~round:6);
  let r = Fault.strike ~every:2 ~at_round:3 ~count:1 () in
  List.iter
    (fun (round, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "every-2 round %d" round)
        want
        (Fault.strike_fires r ~round))
    [ (1, false); (2, false); (3, true); (4, false); (5, true); (7, true) ]

let test_strike_every_validation () =
  Alcotest.check_raises "every < 0"
    (Invalid_argument "Fault.strike: every must be >= 0") (fun () ->
      ignore (Fault.strike ~every:(-1) ~at_round:1 ~count:1 ()))

let test_partition_validation () =
  Alcotest.check_raises "split_at < 1"
    (Invalid_argument "Fault.partition: split_at must be >= 1") (fun () ->
      ignore (Fault.partition ~split_at:0 ~heal_at:2 ()));
  Alcotest.check_raises "heal_at <= split_at"
    (Invalid_argument "Fault.partition: heal_at must be > split_at") (fun () ->
      ignore (Fault.partition ~split_at:3 ~heal_at:3 ()))

(* A fault-plan partition window blocks every cross-side delivery while
   open: run push on K2 (one edge) with the window covering the whole
   horizon and force the two nodes onto different sides. Fraction 1
   puts every node on the minority side (same side!), fraction 0 ditto,
   so instead check the complement: fraction 0 never blocks. *)
let test_partition_window_same_side () =
  let g = Rumor_test_support.Classic.complete 2 in
  let run fraction =
    let fault =
      Fault.plan
        ~partition:(Fault.partition ~fraction ~split_at:1 ~heal_at:100 ())
        ()
    in
    let rng = Rng.create 42 in
    Engine.run ~fault ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Rumor_core.Baselines.push_pull ~horizon:20 ())
      ~sources:[ 0 ] ()
  in
  (* fraction 0: both nodes on the majority side — nothing is blocked. *)
  Alcotest.(check int) "fraction 0 informs both" 2 (run 0.).Engine.informed

(* --- invariant monitor ------------------------------------------- *)

let test_invariant_basics () =
  let m = Invariant.create ~limit:2 () in
  Alcotest.(check bool) "fresh monitor ok" true (Invariant.count m = 0);
  Invariant.tick m;
  Invariant.tick m;
  Alcotest.(check int) "two rounds checked" 2 (Invariant.rounds_checked m);
  Invariant.record m ~check:"census" ~round:1 ~detail:"a";
  Invariant.record m ~check:"census" ~round:2 ~detail:"b";
  Invariant.record m ~check:"census" ~round:3 ~detail:"c";
  Alcotest.(check bool) "not ok" false (Invariant.count m = 0);
  Alcotest.(check int) "all counted" 3 (Invariant.count m);
  Alcotest.(check int)
    "stored capped at limit" 2
    (List.length (Invariant.violations m));
  (* Oldest first, newest dropped beyond the cap. *)
  (match Invariant.violations m with
  | v :: _ -> Alcotest.(check string) "oldest kept first" "a" v.Invariant.detail
  | [] -> Alcotest.fail "no violations stored");
  Alcotest.check_raises "limit < 1"
    (Invalid_argument "Invariant.create: limit must be >= 1") (fun () ->
      ignore (Invariant.create ~limit:0 ()))

(* A clean run under the monitor reports zero violations — across the
   incremental-census path, the churn (full recount) path and repair. *)
let test_monitor_clean_run () =
  let rng = Rng.create 7 in
  let g = Regular.sample_connected ~rng ~n:256 ~d:4 Regular.Pairing in
  let m = Invariant.create () in
  let r =
    Engine.run ~monitor:m ~rng
      ~topology:(Topology.of_graph g)
      ~protocol:(Algorithm.make (Params.make ~n_estimate:256 ~d:4 ()))
      ~sources:[ 0 ] ()
  in
  Alcotest.(check bool) "run completed" true (Engine.success r);
  Alcotest.(check bool) "no violations" true (Invariant.count m = 0);
  Alcotest.(check bool) "rounds checked" true (Invariant.rounds_checked m > 0)

(* The monitor draws no randomness: a run with the monitor installed is
   bit-identical to the same run without it. *)
let test_monitor_transparent () =
  let go monitor =
    let rng = Rng.create 11 in
    let g = Regular.sample_connected ~rng ~n:128 ~d:4 Regular.Pairing in
    let r =
      Engine.run ?monitor ~rng
        ~topology:(Topology.of_graph g)
        ~protocol:(Rumor_core.Baselines.push_pull ~horizon:30 ())
        ~sources:[ 0 ] ()
    in
    (r.Engine.rounds, Engine.transmissions r, r.Engine.informed)
  in
  Alcotest.(check (triple int int int))
    "monitor is observationally transparent" (go None)
    (go (Some (Invariant.create ())))

(* --- partition cut stacking -------------------------------------- *)

let overlay_of ~seed ~n ~d =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  (Overlay.of_graph ~capacity:n g, rng)

let test_partition_stacking_raises () =
  let o, rng = overlay_of ~seed:3 ~n:64 ~d:4 in
  let cut = Partition.split_random o ~rng ~fraction:0.5 in
  Alcotest.(check bool) "nonempty cut" true (Partition.cut_size cut > 0);
  Alcotest.check_raises "second split blocked"
    (Invalid_argument
       "Partition.split_by: overlay already has an outstanding unhealed cut")
    (fun () -> ignore (Partition.split_random o ~rng ~fraction:0.5));
  Partition.heal o cut;
  Alcotest.(check int) "cut_size 0 after heal" 0 (Partition.cut_size cut);
  (* Healing releases the overlay: a new split is allowed again. *)
  let cut2 = Partition.split_random o ~rng ~fraction:0.5 in
  Partition.heal o cut2

let test_partition_empty_cut_never_blocks () =
  let o, _rng = overlay_of ~seed:4 ~n:32 ~d:4 in
  (* side = const false: nobody on the minority side, no crossing edge. *)
  let c1 = Partition.split_by o ~side:(fun _ -> false) in
  Alcotest.(check int) "empty cut" 0 (Partition.cut_size c1);
  let c2 = Partition.split_by o ~side:(fun _ -> false) in
  Alcotest.(check int) "still empty" 0 (Partition.cut_size c2);
  ignore (c1, c2)

let test_heal_skips_dead_endpoints () =
  let o, rng = overlay_of ~seed:5 ~n:64 ~d:4 in
  let victim = 0 in
  let before = Overlay.degree o victim in
  Alcotest.(check int) "4-regular before" 4 before;
  let cut = Partition.split_random o ~rng ~fraction:0.5 in
  Overlay.deactivate o victim;
  Partition.heal o cut;
  Alcotest.(check bool) "victim stays dead" false (Overlay.is_alive o victim);
  (* No live node regained an edge towards the dead endpoint. *)
  for v = 1 to 63 do
    if Overlay.is_alive o v then
      List.iter
        (fun w ->
          if w = victim then Alcotest.fail "edge to dead endpoint re-added")
        (Overlay.neighbors o v)
  done

let prop_cut_heal_degree_sequence =
  QCheck.Test.make ~count:100
    ~name:"cut-then-heal restores the exact degree sequence"
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, pct) ->
      let o, rng = overlay_of ~seed:(succ seed) ~n:64 ~d:4 in
      let degrees () =
        List.init (Overlay.capacity o) (fun v -> Overlay.degree o v)
      in
      let before = degrees () in
      let fraction = float_of_int pct /. 100. in
      let cut = Partition.split_random o ~rng ~fraction in
      Partition.heal o cut;
      degrees () = before)

(* --- scenario keys and error text -------------------------------- *)

let scenario_exn text =
  match Scenario.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let test_scenario_new_keys () =
  let s =
    scenario_exn
      "strike_every = 2\n\
       crash_adversary = frontier\n\
       crash_count = 8\n\
       crash_round = 3\n\
       partition_round = 4\n\
       heal_round = 9\n\
       partition_fraction = 0.25\n\
       join_prob = 0.1\n\
       leave_prob = 0.2\n"
  in
  Alcotest.(check int) "strike_every" 2 s.Scenario.strike_every;
  Alcotest.(check int) "partition_round" 4 s.Scenario.partition_round;
  Alcotest.(check int) "heal_round" 9 s.Scenario.heal_round;
  Alcotest.(check (float 0.)) "fraction" 0.25 s.Scenario.partition_fraction;
  Alcotest.(check (float 0.)) "join" 0.1 s.Scenario.join_prob;
  Alcotest.(check (float 0.)) "leave" 0.2 s.Scenario.leave_prob;
  let fault = Scenario.fault_plan s in
  Alcotest.(check bool) "plan has node faults" true
    (Fault.has_node_faults fault)

let check_error text expected_substrings =
  match Scenario.parse text with
  | Ok _ -> Alcotest.failf "parse accepted %S" text
  | Error e ->
      List.iter
        (fun sub ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          if not (contains e sub) then
            Alcotest.failf "error %S misses %S" e sub)
        expected_substrings

let test_scenario_error_carries_raw_text () =
  (* The message must name the line number and quote the raw line. *)
  check_error "n = 1024\nstrike_every = banana\n"
    [ "line 2"; "strike_every = banana" ];
  check_error "partition_fraction = 1.5\n"
    [ "line 1"; "partition_fraction = 1.5" ];
  check_error "partition_round = 5\nheal_round = 4\n"
    [ "heal_round 4"; "partition_round 5" ]

(* --- partition window delays but does not prevent completion ------ *)

let pinned_scenario extra =
  scenario_exn
    ("seed = 5\nn = 2048\nd = 8\nprotocol = bef\nalpha = 2.0\nreps = 1\n\
      domains = 1\n" ^ extra)

let test_partition_window_pinned () =
  let base = Chaos.run_one (pinned_scenario "") in
  let part =
    Chaos.run_one
      (pinned_scenario
         "partition_round = 3\nheal_round = 8\npartition_fraction = 0.5\n")
  in
  Alcotest.(check bool) "baseline completes" true base.Chaos.completed;
  Alcotest.(check bool) "partition run completes" true part.Chaos.completed;
  Alcotest.(check string)
    "baseline digest pinned" "a860aab76673c402" base.Chaos.digest;
  Alcotest.(check string)
    "partition digest pinned" "770f6b59f7fd4d75" part.Chaos.digest;
  Alcotest.(check bool) "both clean" true
    ((not (Chaos.failed base)) && not (Chaos.failed part));
  (* Delay, measured on the underlying trajectory: the partition run
     needs strictly more rounds to reach everyone. *)
  let completion s =
    let rng = Rng.create s.Scenario.seed in
    let g =
      Scenario.make_graph ~rng ~topology:s.Scenario.topology ~n:s.Scenario.n
        ~d:s.Scenario.d
    in
    let protocol =
      Scenario.make_protocol ~protocol:s.Scenario.protocol ~n:(Graph.n g)
        ~d:s.Scenario.d ~alpha:s.Scenario.alpha ~fanout:s.Scenario.fanout ()
    in
    let r =
      Engine.run ~fault:(Scenario.fault_plan s) ~rng
        ~topology:(Topology.of_graph g) ~protocol
        ~sources:[ Run.random_source rng g ]
        ()
    in
    match r.Engine.completion_round with
    | Some c -> c
    | None -> Alcotest.fail "no completion round"
  in
  (* A window opening at round 1 (only the source knows) keeps the far
     side dark until the heal, so completion cannot beat heal_round. *)
  let c0 = completion (pinned_scenario "") in
  let c1 =
    completion
      (pinned_scenario
         "partition_round = 1\nheal_round = 18\npartition_fraction = 0.5\n")
  in
  Alcotest.(check bool)
    (Printf.sprintf "window delays completion (%d > %d)" c1 c0)
    true (c1 > c0);
  Alcotest.(check bool)
    (Printf.sprintf "completion after the heal (%d >= 18)" c1)
    true (c1 >= 18)

(* --- chaos harness ------------------------------------------------ *)

let test_run_one_deterministic () =
  let s = Chaos.sample (Rng.create 99) in
  let a = Chaos.run_one s in
  let b = Chaos.run_one s in
  Alcotest.(check string) "same digest" a.Chaos.digest b.Chaos.digest;
  let c = Chaos.run_one ~check:false s in
  Alcotest.(check string)
    "digest independent of the monitor" a.Chaos.digest c.Chaos.digest;
  Alcotest.(check int) "monitor off checks nothing" 0 c.Chaos.checked

let test_sample_deterministic () =
  let take seed =
    let rng = Rng.create seed in
    List.init 5 (fun _ -> Chaos.sample rng)
  in
  Alcotest.(check bool) "same seed, same configs" true (take 17 = take 17);
  Alcotest.(check bool) "different seed, different configs" true
    (take 17 <> take 18)

let test_scenario_text_roundtrip () =
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let s = Chaos.sample rng in
    match Scenario.parse (Scenario.to_text s) with
    | Ok s' ->
        if s' <> s then
          Alcotest.failf "to_text round-trip changed:\n%s" (Scenario.to_text s)
    | Error e -> Alcotest.failf "to_text does not re-parse: %s" e
  done

(* Chaos replays artifacts through Scenario.run_rep, which reads stop,
   source, churn_rate and packed; an artifact that dropped any of them
   would replay a different run. Mutate exactly those keys on sampled
   configurations (keeping the churn models exclusive and implicit
   views churn-free, as validate demands) and require a lossless
   round-trip. *)
let prop_to_text_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"to_text round-trips stop/source/churn_rate/packed"
    QCheck.(
      quad small_nat (int_range 0 2) bool (pair bool (int_range 0 3)))
    (fun (seed, stop, first, (packed, rate)) ->
      let s = Chaos.sample (Rng.create seed) in
      let churn_rate =
        if Scenario.is_implicit s.Scenario.topology then -1.
        else [| -1.; 0.; 0.005; 0.25 |].(rate)
      in
      let s =
        {
          s with
          Scenario.stop = [| "auto"; "true"; "false" |].(stop);
          source = (if first then "first" else "random");
          packed;
          churn_rate;
          join_prob = (if churn_rate >= 0. then 0. else s.Scenario.join_prob);
          leave_prob = (if churn_rate >= 0. then 0. else s.Scenario.leave_prob);
        }
      in
      Scenario.parse (Scenario.to_text s) = Ok s)

(* Digests pinned before the scenario-to-kernel dispatch was merged into
   Scenario.run_rep, one per branch of the merged body: an implicit
   view with bursty loss and repair, the implicit hypercube at an n that
   is not a power of two (repair sized from n, not the rounded-up
   capacity), and a materialised overlay under join/leave churn with
   and without repair. n = 2048 needs 11 bits, an odd count, so the
   implicit-regular pin also covers the unbalanced Feistel halves. *)
let test_dispatch_digests_pinned () =
  List.iter
    (fun (name, text, want) ->
      let o = Chaos.run_one (scenario_exn text) in
      Alcotest.(check bool) (name ^ " clean") false (Chaos.failed o);
      Alcotest.(check string) name want o.Chaos.digest)
    [
      ( "implicit-regular + burst + repair",
        "seed = 1\nn = 2048\ntopology = implicit-regular\nburst_loss = 0.6\n\
         max_epochs = 4\n",
        "3b040919f78e04b2" );
      ( "implicit-hypercube n = 96 + repair",
        "seed = 22\nn = 96\ntopology = implicit-hypercube\nfanout = 2\n\
         loss = 0.5\nmax_epochs = 4\n",
        "67b46721aaa144be" );
      ( "regular + crash/recovery + churn + repair",
        "seed = 23\nn = 1024\nalpha = 2.0\ncrash_rate = 0.01\n\
         recover_rate = 0.25\njoin_prob = 0.1\nleave_prob = 0.1\n\
         max_epochs = 4\n",
        "3ee2d471ff44a5a1" );
      ( "regular + churn, no repair",
        "seed = 24\nn = 1024\njoin_prob = 0.1\nleave_prob = 0.1\n",
        "d11fc03b361b2946" );
    ]

let test_artifact_roundtrip () =
  let s = Chaos.sample (Rng.create 31) in
  let o = Chaos.run_one s in
  let text =
    Chaos.artifact ~notes:[ "note one"; "note two" ] ~digest:o.Chaos.digest s
  in
  match Chaos.parse_artifact text with
  | Error e -> Alcotest.failf "artifact does not parse: %s" e
  | Ok (s', d) ->
      Alcotest.(check string) "digest preserved" o.Chaos.digest d;
      Alcotest.(check bool) "scenario preserved" true (s' = s)

let test_artifact_errors () =
  (match Chaos.parse_artifact "n = 64\n" with
  | Error e ->
      Alcotest.(check bool)
        "missing digest reported" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted artifact without digest");
  match Chaos.parse_artifact "expect_digest = nope\nn = 64\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed digest"

let test_replay_matches_artifact () =
  let s = Chaos.sample (Rng.create 47) in
  let o = Chaos.run_one s in
  let text = Chaos.artifact ~digest:o.Chaos.digest s in
  match Chaos.parse_artifact text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok (s', expect) ->
      let o' = Chaos.run_one s' in
      Alcotest.(check string) "replay digest matches" expect o'.Chaos.digest

let test_shrink_greedy () =
  (* Synthetic failure predicate: no simulation involved. *)
  let s = { (Chaos.sample (Rng.create 3)) with Scenario.n = 512 } in
  let fails (c : Scenario.t) = c.Scenario.n >= 128 in
  let small = Chaos.shrink ~fails s in
  Alcotest.(check int) "halved to the smallest failing n" 128
    small.Scenario.n;
  (* Every fault axis the predicate ignores was zeroed away. *)
  Alcotest.(check (float 0.)) "loss zeroed" 0. small.Scenario.loss;
  Alcotest.(check int) "partition zeroed" 0 small.Scenario.partition_round;
  Alcotest.(check (float 0.)) "churn zeroed" 0. small.Scenario.join_prob;
  (* A predicate nothing satisfies leaves the scenario unchanged. *)
  let same = Chaos.shrink ~fails:(fun _ -> false) s in
  Alcotest.(check bool) "no shrink without failure" true (same = s)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_cut_heal_degree_sequence ]

let qcheck_roundtrip =
  List.map QCheck_alcotest.to_alcotest [ prop_to_text_roundtrip ]

let () =
  Alcotest.run "chaos"
    [
      ( "fault-extensions",
        [
          Alcotest.test_case "strike_fires schedule" `Quick test_strike_fires;
          Alcotest.test_case "strike every validation" `Quick
            test_strike_every_validation;
          Alcotest.test_case "partition validation" `Quick
            test_partition_validation;
          Alcotest.test_case "partition window fraction 0" `Quick
            test_partition_window_same_side;
        ] );
      ( "invariant-monitor",
        [
          Alcotest.test_case "record/limit/ok" `Quick test_invariant_basics;
          Alcotest.test_case "clean run has no violations" `Quick
            test_monitor_clean_run;
          Alcotest.test_case "monitor is transparent" `Quick
            test_monitor_transparent;
        ] );
      ( "partition-overlay",
        [
          Alcotest.test_case "stacking raises" `Quick
            test_partition_stacking_raises;
          Alcotest.test_case "empty cut never blocks" `Quick
            test_partition_empty_cut_never_blocks;
          Alcotest.test_case "heal skips dead endpoints" `Quick
            test_heal_skips_dead_endpoints;
        ]
        @ qcheck_cases );
      ( "scenario-keys",
        [
          Alcotest.test_case "new keys parse" `Quick test_scenario_new_keys;
          Alcotest.test_case "errors carry line and raw text" `Quick
            test_scenario_error_carries_raw_text;
        ] );
      ( "partition-window",
        [
          Alcotest.test_case "delays but completes (pinned)" `Quick
            test_partition_window_pinned;
        ] );
      ( "chaos-harness",
        [
          Alcotest.test_case "run_one deterministic" `Quick
            test_run_one_deterministic;
          Alcotest.test_case "sample deterministic" `Quick
            test_sample_deterministic;
          Alcotest.test_case "scenario_text round-trips" `Quick
            test_scenario_text_roundtrip;
          Alcotest.test_case "artifact round-trips" `Quick
            test_artifact_roundtrip;
          Alcotest.test_case "artifact error paths" `Quick test_artifact_errors;
          Alcotest.test_case "replay matches artifact" `Quick
            test_replay_matches_artifact;
          Alcotest.test_case "greedy shrink" `Quick test_shrink_greedy;
          Alcotest.test_case "dispatch digests pinned" `Quick
            test_dispatch_digests_pinned;
        ]
        @ qcheck_roundtrip );
    ]
