(* Tests for the fourth extension wave: the sender-side feedback hook,
   the Demers rumor-mongering variants, scenario files, and parallel
   experiment replication. *)

module Rng = Rumor_test_support.Rng
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Protocol = Rumor_sim.Protocol
module Selector = Rumor_sim.Selector
module Engine = Rumor_sim.Engine
module Topology = Rumor_test_support.Topology
module Feedback = Rumor_core.Feedback
module Baselines = Rumor_core.Baselines
module Run = Rumor_core.Run
module Scenario = Rumor_cli.Scenario
module Experiment = Rumor_test_support.Experiment

(* --- the feedback hook itself --- *)

(* A push protocol that counts sender-side feedback signals in a shared
   cell so the test can observe them. *)
let counting_protocol ~cell ~horizon =
  {
    Protocol.name = "count-feedback";
    selector = Selector.Uniform { fanout = 1 };
    horizon;
    init = (fun ~informed -> informed);
    decide =
      (fun st ~round ->
        ignore round;
        ignore st;
        { Protocol.push = true; pull = false });
    receive = (fun _ ~round -> ignore round; true);
    feedback =
      (fun st ~round ->
        ignore round;
        incr cell;
        st);
    quiescent = (fun _ ~round -> round > horizon);
    packed = None;
  }

let test_feedback_hook_fires () =
  let cell = ref 0 in
  let rng = Rng.create 1 in
  let res =
    Engine.run ~rng
      ~topology:(Topology.of_graph (Classic.complete 64))
      ~protocol:(counting_protocol ~cell ~horizon:30)
      ~sources:[ 0 ] ()
  in
  (* Every push transmission either informs someone new or produces one
     feedback signal. *)
  Alcotest.(check int) "tx = informs + feedbacks" res.Engine.push_tx
    ((res.Engine.informed - 1) + !cell);
  Alcotest.(check bool) "feedback happened" true (!cell > 0)

let test_feedback_not_fired_without_duplicates () =
  (* On a path pushed for one round from an endpoint, the single
     delivery reaches an uninformed node: no feedback. *)
  let cell = ref 0 in
  let rng = Rng.create 2 in
  let _ =
    Engine.run ~rng
      ~topology:(Topology.of_graph (Classic.path 3))
      ~protocol:(counting_protocol ~cell ~horizon:1)
      ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "no duplicates, no feedback" 0 !cell

(* --- Demers variants --- *)

let run_variant ~seed protocol =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n:1024 ~d:8 Regular.Pairing in
  Run.once ~rng ~graph:g ~protocol ~source:0 ()

let test_blind_counter_dies () =
  let res = run_variant ~seed:3 (Feedback.blind_counter ~k:4 ~horizon:500 ()) in
  (* Every node transmits for exactly k rounds after receipt: the rumor
     must die out long before the horizon. *)
  Alcotest.(check bool) "self-terminates" true (res.Engine.rounds < 100);
  Alcotest.(check bool) "high coverage" true
    (res.Engine.informed > (99 * res.Engine.population) / 100)

let test_feedback_counter_dies () =
  let res =
    run_variant ~seed:4 (Feedback.feedback_counter ~k:2 ~horizon:500 ())
  in
  Alcotest.(check bool) "self-terminates" true (res.Engine.rounds < 200);
  Alcotest.(check bool) "informs most nodes" true
    (res.Engine.informed > (9 * res.Engine.population) / 10)

let test_feedback_coin_dies () =
  let rng = Rng.create 5 in
  let res = run_variant ~seed:5 (Feedback.feedback_coin ~rng ~k:2 ~horizon:500 ()) in
  Alcotest.(check bool) "self-terminates" true (res.Engine.rounds < 200)

let test_blind_coin_dies () =
  let rng = Rng.create 6 in
  let res = run_variant ~seed:6 (Feedback.blind_coin ~rng ~k:2 ~horizon:500 ()) in
  Alcotest.(check bool) "self-terminates" true (res.Engine.rounds < 200)

let test_larger_k_lower_residue () =
  let residue seed k =
    let res = run_variant ~seed (Feedback.blind_counter ~k ~horizon:500 ()) in
    res.Engine.population - res.Engine.informed
  in
  let r1 = residue 7 1 and r8 = residue 7 8 in
  Alcotest.(check bool)
    (Printf.sprintf "k=8 (%d left) beats k=1 (%d left)" r8 r1)
    true (r8 <= r1);
  Alcotest.(check int) "k=8 leaves nobody" 0 r8

let test_feedback_validation () =
  Alcotest.check_raises "k" (Invalid_argument "Feedback: k < 1") (fun () ->
      ignore (Feedback.blind_counter ~k:0 ~horizon:10 ()));
  Alcotest.check_raises "horizon" (Invalid_argument "Feedback: horizon < 1")
    (fun () -> ignore (Feedback.feedback_counter ~k:2 ~horizon:0 ()))

(* --- Scenario --- *)

let test_scenario_defaults () =
  match Scenario.parse "" with
  | Ok s ->
      Alcotest.(check int) "default n" 16384 s.Scenario.n;
      Alcotest.(check string) "default protocol" "bef" s.Scenario.protocol
  | Error e -> Alcotest.failf "empty scenario should parse: %s" e

let test_scenario_parse_full () =
  let text =
    "# comment line\n\
     seed = 9\n\
     n = 2048   # trailing comment\n\
     d=6\n\
     topology = hypercube\n\
     protocol = push\n\
     alpha = 2.5\n\
     fanout = 2\n\
     loss = 0.25\n\
     call_failure = 0.1\n\
     reps = 7\n"
  in
  match Scenario.parse text with
  | Error e -> Alcotest.failf "should parse: %s" e
  | Ok s ->
      Alcotest.(check int) "seed" 9 s.Scenario.seed;
      Alcotest.(check int) "n" 2048 s.Scenario.n;
      Alcotest.(check int) "d" 6 s.Scenario.d;
      Alcotest.(check string) "topology" "hypercube" s.Scenario.topology;
      Alcotest.(check string) "protocol" "push" s.Scenario.protocol;
      Alcotest.(check (float 1e-9)) "alpha" 2.5 s.Scenario.alpha;
      Alcotest.(check int) "fanout" 2 s.Scenario.fanout;
      Alcotest.(check (float 1e-9)) "loss" 0.25 s.Scenario.loss;
      Alcotest.(check (float 1e-9)) "call failure" 0.1 s.Scenario.call_failure;
      Alcotest.(check int) "reps" 7 s.Scenario.reps

let test_scenario_parse_fault_keys () =
  let text =
    "burst_loss = 0.1\n\
     burst_len = 6\n\
     crash_rate = 0.01\n\
     recover_rate = 0.2\n\
     crash_adversary = frontier\n\
     crash_count = 32\n\
     crash_round = 5\n\
     n_error = 4\n"
  in
  match Scenario.parse text with
  | Error e -> Alcotest.failf "should parse: %s" e
  | Ok s ->
      Alcotest.(check (float 1e-9)) "burst_loss" 0.1 s.Scenario.burst_loss;
      Alcotest.(check (float 1e-9)) "burst_len" 6. s.Scenario.burst_len;
      Alcotest.(check (float 1e-9)) "crash_rate" 0.01 s.Scenario.crash_rate;
      Alcotest.(check (float 1e-9)) "recover_rate" 0.2 s.Scenario.recover_rate;
      Alcotest.(check string) "adversary" "frontier" s.Scenario.crash_adversary;
      Alcotest.(check int) "crash_count" 32 s.Scenario.crash_count;
      Alcotest.(check int) "crash_round" 5 s.Scenario.crash_round;
      Alcotest.(check (float 1e-9)) "n_error" 4. s.Scenario.n_error;
      (* The assembled plan carries every mode. *)
      let fault = Scenario.fault_plan s in
      Alcotest.(check bool) "burst built" true
        (fault.Rumor_sim.Fault.burst <> None);
      Alcotest.(check bool) "strike built" true
        (fault.Rumor_sim.Fault.strike <> None)

let expect_error text fragment =
  match Scenario.parse text with
  | Ok _ -> Alcotest.failf "expected an error mentioning %S" fragment
  | Error msg ->
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg fragment)
        true (contains fragment msg)

let test_scenario_parse_errors () =
  expect_error "nonsense" "key = value";
  expect_error "n = few" "integer";
  expect_error "n = 2" "n must be";
  expect_error "alpha = 0" "alpha must be";
  expect_error "loss = 3" "loss must be";
  expect_error "topology = donut" "unknown topology";
  expect_error "protocol = telepathy" "unknown protocol";
  expect_error "color = blue" "unknown key";
  expect_error "seed = 1\nreps = 0" "line 2";
  (* Duplicate keys are rejected, naming both occurrences. *)
  expect_error "n = 512\nd = 4\nn = 1024" "duplicate key 'n'";
  expect_error "n = 512\nd = 4\nn = 1024" "line 1";
  (* New fault keys validate their ranges... *)
  expect_error "burst_loss = 1.5" "burst_loss must be";
  expect_error "burst_len = 0.5" "burst_len must be";
  expect_error "crash_adversary = gremlins" "unknown crash_adversary";
  expect_error "crash_round = 0" "crash_round must be";
  expect_error "n_error = 0" "n_error must be";
  (* ...and their joint realisability. *)
  expect_error "burst_loss = 0.9\nburst_len = 2" "unrealisable";
  (* Materialised (n, d) the generators cannot build. *)
  expect_error "n = 4\nd = 8" "topology regular needs 3 <= d < n";
  expect_error "n = 9\nd = 3" "topology regular needs";
  expect_error "n = 1000\nd = 2" "topology regular needs";
  expect_error "topology = gnp\nn = 4\nd = 8" "topology gnp needs d <= n - 1";
  expect_error "topology = product-k5\nn = 1000\nd = 5"
    "topology product-k5 needs"

let test_scenario_run () =
  let scenario =
    { Scenario.default with Scenario.n = 512; reps = 2; seed = 11 }
  in
  let report = Scenario.run scenario in
  Alcotest.(check (float 1e-9)) "succeeds" 1. report.Scenario.success_rate;
  Alcotest.(check int) "reps recorded" 2 report.Scenario.tx_per_node.Rumor_test_support.Summary.count;
  let rendered = Format.asprintf "%a" Scenario.pp_report report in
  Alcotest.(check bool) "report renders" true (String.length rendered > 0)

let test_scenario_parse_file_missing () =
  match Scenario.parse_file "/nonexistent/scenario.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file should error"

let test_scenario_factories_reject_unknown () =
  let rng = Rng.create 12 in
  (match Scenario.make_graph ~rng ~topology:"moebius" ~n:16 ~d:4 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown topology accepted");
  match Scenario.make_protocol ~protocol:"smoke-signals" ~n:16 ~d:4 ~alpha:1. ~fanout:4 () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown protocol accepted"

(* --- parallel replication --- *)

let test_parallel_matches_sequential () =
  let f rng =
    (* A measurement with enough randomness to expose stream mixups. *)
    let g = Regular.sample ~rng ~n:64 ~d:4 Regular.Pairing in
    (Rumor_test_support.Graph.m g, Rng.int rng 1_000_000)
  in
  let seq = Experiment.replicate ~seed:13 ~reps:9 f in
  let par = Experiment.replicate_parallel ~domains:4 ~seed:13 ~reps:9 f in
  Alcotest.(check bool) "identical results" true (seq = par)

let test_parallel_single_domain () =
  let f rng = Rng.float rng in
  let seq = Experiment.replicate ~seed:14 ~reps:5 f in
  let par = Experiment.replicate_parallel ~domains:1 ~seed:14 ~reps:5 f in
  Alcotest.(check (list (float 1e-12))) "domains=1 delegates" seq par

let test_parallel_more_domains_than_reps () =
  let par =
    Experiment.replicate_parallel ~domains:16 ~seed:15 ~reps:3 (fun rng ->
        Rng.int rng 100)
  in
  Alcotest.(check int) "three results" 3 (List.length par)

let test_parallel_validation () =
  Alcotest.check_raises "reps" (Invalid_argument "Experiment.replicate: reps < 1")
    (fun () ->
      ignore (Experiment.replicate_parallel ~seed:1 ~reps:0 (fun _ -> ())))

let test_parallel_broadcast_workload () =
  (* A realistic workload across domains: full broadcasts. *)
  let f rng =
    let g = Regular.sample_connected ~rng ~n:512 ~d:8 Regular.Pairing in
    let p =
      Rumor_core.Algorithm.make (Rumor_core.Params.make ~n_estimate:512 ~d:8 ())
    in
    Engine.transmissions (Run.once ~rng ~graph:g ~protocol:p ~source:0 ())
  in
  let seq = Experiment.replicate ~seed:16 ~reps:6 f in
  let par = Experiment.replicate_parallel ~domains:3 ~seed:16 ~reps:6 f in
  Alcotest.(check (list int)) "broadcast results identical" seq par

let () =
  Alcotest.run "extensions-4"
    [
      ( "feedback-hook",
        [
          Alcotest.test_case "fires on duplicates" `Quick test_feedback_hook_fires;
          Alcotest.test_case "silent without duplicates" `Quick
            test_feedback_not_fired_without_duplicates;
        ] );
      ( "demers",
        [
          Alcotest.test_case "blind counter dies" `Quick test_blind_counter_dies;
          Alcotest.test_case "feedback counter dies" `Quick test_feedback_counter_dies;
          Alcotest.test_case "feedback coin dies" `Quick test_feedback_coin_dies;
          Alcotest.test_case "blind coin dies" `Quick test_blind_coin_dies;
          Alcotest.test_case "larger k lower residue" `Quick
            test_larger_k_lower_residue;
          Alcotest.test_case "validation" `Quick test_feedback_validation;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "defaults" `Quick test_scenario_defaults;
          Alcotest.test_case "parse full" `Quick test_scenario_parse_full;
          Alcotest.test_case "parse fault keys" `Quick
            test_scenario_parse_fault_keys;
          Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors;
          Alcotest.test_case "run" `Quick test_scenario_run;
          Alcotest.test_case "missing file" `Quick test_scenario_parse_file_missing;
          Alcotest.test_case "unknown names" `Quick
            test_scenario_factories_reject_unknown;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain;
          Alcotest.test_case "domains > reps" `Quick
            test_parallel_more_domains_than_reps;
          Alcotest.test_case "validation" `Quick test_parallel_validation;
          Alcotest.test_case "broadcast workload" `Slow
            test_parallel_broadcast_workload;
        ] );
    ]
