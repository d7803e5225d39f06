(* Tests for trace analytics and the shipped scenario files. *)

module Rng = Rumor_test_support.Rng
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Trace = Rumor_test_support.Trace
module Params = Rumor_core.Params
module Phase = Rumor_core.Phase
module Algorithm = Rumor_core.Algorithm
module Analysis = Rumor_core.Analysis
module Run = Rumor_core.Run
module Scenario = Rumor_cli.Scenario

let synthetic_trace rows =
  let t = Trace.create () in
  List.iteri
    (fun i (informed, push, pull) ->
      Trace.add t
        {
          Trace.round = i + 1;
          informed;
          newly = 0;
          push_tx = push;
          pull_tx = pull;
          channels = 0;
        })
    rows;
  t

(* --- rounds_to --- *)

let test_rounds_to () =
  let t = synthetic_trace [ (1, 0, 0); (5, 0, 0); (60, 0, 0); (100, 0, 0) ] in
  Alcotest.(check (option int)) "half" (Some 3)
    (Analysis.rounds_to t ~population:100 ~fraction:0.5);
  Alcotest.(check (option int)) "all" (Some 4)
    (Analysis.rounds_to t ~population:100 ~fraction:1.);
  Alcotest.(check (option int)) "immediately" (Some 1)
    (Analysis.rounds_to t ~population:100 ~fraction:0.01);
  Alcotest.(check (option int)) "never" None
    (Analysis.rounds_to t ~population:200 ~fraction:1.)

let test_rounds_to_validation () =
  let t = synthetic_trace [ (1, 0, 0) ] in
  Alcotest.check_raises "fraction"
    (Invalid_argument "Analysis.rounds_to: fraction out of range") (fun () ->
      ignore (Analysis.rounds_to t ~population:10 ~fraction:1.5));
  Alcotest.check_raises "population"
    (Invalid_argument "Analysis.rounds_to: population <= 0") (fun () ->
      ignore (Analysis.rounds_to t ~population:0 ~fraction:0.5))

(* --- growth and shrink factors --- *)

let test_growth_factors () =
  let t = synthetic_trace [ (2, 0, 0); (6, 0, 0); (12, 0, 0) ] in
  Alcotest.(check (list (float 1e-9))) "factors" [ 3.; 2. ]
    (Analysis.growth_factors t);
  Alcotest.(check (float 1e-9)) "peak" 3. (Analysis.peak_growth t)

let test_growth_empty () =
  let t = synthetic_trace [ (5, 0, 0) ] in
  Alcotest.(check (list (float 1e-9))) "singleton" [] (Analysis.growth_factors t);
  Alcotest.(check (float 1e-9)) "peak default" 1. (Analysis.peak_growth t)

let test_shrink_factors () =
  let t = synthetic_trace [ (90, 0, 0); (95, 0, 0); (100, 0, 0) ] in
  Alcotest.(check (list (float 1e-9))) "shrink" [ 0.5; 0. ]
    (Analysis.shrink_factors t ~population:100)

(* --- phase attribution --- *)

let test_phase_transmissions () =
  let params = Params.make ~alpha:1.0 ~n_estimate:65536 ~d:8 () in
  let s = Phase.schedule params Phase.Small in
  (* p1_end = 16, p2_end = 20, p3_end = 21, last = 36. *)
  let rows =
    List.init 22 (fun i ->
        let r = i + 1 in
        if r <= 16 then (0, 10, 0)
        else if r <= 20 then (0, 100, 0)
        else (0, 0, 1000))
  in
  let t = synthetic_trace rows in
  let per_phase = Analysis.phase_transmissions t s in
  let get phase = List.assoc phase per_phase in
  Alcotest.(check int) "phase 1" 160 (get Phase.Phase1);
  Alcotest.(check int) "phase 2" 400 (get Phase.Phase2);
  Alcotest.(check int) "phase 3" 1000 (get Phase.Phase3);
  Alcotest.(check int) "phase 4" 1000 (get Phase.Phase4);
  Alcotest.(check int) "finished" 0 (get Phase.Finished)

(* --- analytics on a real run reproduce the lemma shapes --- *)

let test_real_run_shapes () =
  let rng = Rng.create 1 in
  let n = 8192 in
  let g = Regular.sample_connected ~rng ~n ~d:8 Regular.Pairing in
  let params = Params.make ~n_estimate:n ~d:8 () in
  let res =
    Run.once ~collect_trace:true ~rng ~graph:g ~protocol:(Algorithm.make params)
      ~source:0 ()
  in
  match res.Engine.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      (* Lemma 1: early growth is at least a factor 2 somewhere. *)
      Alcotest.(check bool) "exponential growth observed" true
        (Analysis.peak_growth t >= 2.);
      (* Corollary 1: an eighth of the network knows within phase 1. *)
      let s = Algorithm.schedule_of params None in
      (match Analysis.rounds_to t ~population:n ~fraction:0.125 with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "n/8 informed by round %d <= %d" r s.Phase.p1_end)
            true
            (r <= s.Phase.p1_end)
      | None -> Alcotest.fail "never reached n/8");
      (* Phase attribution covers all transmissions. *)
      let attributed =
        List.fold_left
          (fun acc (_, tx) -> acc + tx)
          0
          (Analysis.phase_transmissions t s)
      in
      Alcotest.(check int) "phases partition the cost"
        (Engine.transmissions res) attributed

(* --- shipped scenario files --- *)

let scenario_files =
  [
    "paper_default.txt";
    "lossy_network.txt";
    "push_baseline.txt";
    "memory_variant.txt";
    "k5_product.txt";
  ]

let scenario_dir =
  (* Tests run from the build sandbox; find the source scenarios through
     the dune workspace root. *)
  let rec search dir depth =
    if depth > 6 then None
    else begin
      let candidate = Filename.concat dir "scenarios" in
      if Sys.file_exists candidate && Sys.is_directory candidate then
        Some candidate
      else search (Filename.concat dir "..") (depth + 1)
    end
  in
  search (Sys.getcwd ()) 0

let test_shipped_scenarios_parse () =
  match scenario_dir with
  | None -> () (* sandboxed build layouts without the source tree *)
  | Some dir ->
      List.iter
        (fun file ->
          let path = Filename.concat dir file in
          match Scenario.parse_file path with
          | Ok s ->
              Alcotest.(check bool)
                (Printf.sprintf "%s has sane reps" file)
                true
                (s.Scenario.reps >= 1)
          | Error e -> Alcotest.failf "%s failed to parse: %s" file e)
        scenario_files

let test_shipped_scenario_runs () =
  (* Run one shipped scenario shrunk to test size. *)
  match scenario_dir with
  | None -> ()
  | Some dir -> begin
      match Scenario.parse_file (Filename.concat dir "lossy_network.txt") with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok s ->
          let report =
            Scenario.run { s with Scenario.n = 512; reps = 2 }
          in
          Alcotest.(check (float 1e-9)) "lossy scenario succeeds" 1.
            report.Scenario.success_rate
    end

let () =
  Alcotest.run "analysis"
    [
      ( "analysis",
        [
          Alcotest.test_case "rounds_to" `Quick test_rounds_to;
          Alcotest.test_case "rounds_to validation" `Quick test_rounds_to_validation;
          Alcotest.test_case "growth factors" `Quick test_growth_factors;
          Alcotest.test_case "growth empty" `Quick test_growth_empty;
          Alcotest.test_case "shrink factors" `Quick test_shrink_factors;
          Alcotest.test_case "phase transmissions" `Quick test_phase_transmissions;
          Alcotest.test_case "real run shapes" `Slow test_real_run_shapes;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "shipped files parse" `Quick test_shipped_scenarios_parse;
          Alcotest.test_case "shipped file runs" `Quick test_shipped_scenario_runs;
        ] );
    ]
