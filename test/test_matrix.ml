(* Tests for the scenario-matrix layer: grammar (sweep/zip/expect,
   ranges, CRLF), grid expansion (cartesian count, coordinate
   uniqueness, deterministic order, seed independence — qcheck), seed
   modes, quick-mode patching, gate evaluation, execution equivalence
   with Scenario.run, and the bench-document validator/differ. *)

module Rng = Rumor_test_support.Rng
module Scenario = Rumor_cli.Scenario
module Matrix = Rumor_cli.Matrix
module Experiment = Rumor_test_support.Experiment
module Engine = Rumor_sim.Engine
module Json = Rumor_test_support.Json
module Benchdoc = Rumor_obs.Benchdoc

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_fragments what msg fragments =
  List.iter
    (fun frag ->
      if not (contains msg frag) then
        Alcotest.failf "%s %S lacks fragment %S" what msg frag)
    fragments

let spec_exn text =
  match Matrix.parse text with
  | Ok s -> s
  | Error e -> Alcotest.failf "matrix parse failed: %s" e

let cells_exn spec =
  match Matrix.cells spec with
  | Ok cs -> cs
  | Error e -> Alcotest.failf "cell expansion failed: %s" e

let expect_error text fragments =
  match Matrix.parse text with
  | Ok _ -> Alcotest.failf "expected parse error for %S" text
  | Error msg -> check_fragments "error" msg fragments

(* --- grammar ------------------------------------------------------ *)

let test_parse_basic () =
  let s =
    spec_exn
      "id = G1\n\
       title = a grid\n\
       seed = 7\n\
       n = 64\n\
       reps = 2\n\
       sweep protocol = bef, push\n\
       sweep loss = 0, 0.1\n\
       expect coverage >= 0.5\n"
  in
  Alcotest.(check string) "id" "G1" s.Matrix.id;
  Alcotest.(check string) "title" "a grid" s.Matrix.title;
  Alcotest.(check int) "axes" 2 (List.length s.Matrix.axes);
  Alcotest.(check int) "cells" 4 (Matrix.cell_count s);
  Alcotest.(check int) "gates" 1 (List.length s.Matrix.gates);
  Alcotest.(check bool) "derived seeds" false s.Matrix.offset_seeds

let test_parse_range () =
  let s = spec_exn "sweep n = 1k..8k *2\n" in
  let ax = List.hd s.Matrix.axes in
  Alcotest.(check (list string))
    "multiplicative" [ "1024"; "2048"; "4096"; "8192" ] ax.Matrix.values;
  let s = spec_exn "sweep d = 4..10 +3\n" in
  let ax = List.hd s.Matrix.axes in
  Alcotest.(check (list string)) "additive" [ "4"; "7"; "10" ] ax.Matrix.values;
  (* mixed list + range in one sweep *)
  let s = spec_exn "sweep n = 64, 1k..2k *2\n" in
  let ax = List.hd s.Matrix.axes in
  Alcotest.(check (list string)) "mixed" [ "64"; "1024"; "2048" ] ax.Matrix.values

let test_parse_zip_and_stride () =
  let s =
    spec_exn
      "seed = 1000\n\
       sweep burst_loss = 0, 0.2, 0.3 seed+=10\n\
       zip burst_len = 4, 4, 6\n\
       sweep churn_rate = 0, 0.02 seed+=1\n"
  in
  Alcotest.(check bool) "offset mode" true s.Matrix.offset_seeds;
  let cs = cells_exn s in
  Alcotest.(check int) "count" 6 (Array.length cs);
  (* last axis fastest; seeds = 1000 + 10*i + j *)
  let seeds = Array.to_list (Array.map (fun c -> c.Matrix.cell_seed) cs) in
  Alcotest.(check (list int))
    "offset seeds"
    [ 1000; 1001; 1010; 1011; 1020; 1021 ]
    seeds;
  (* zip rides the burst axis *)
  let c4 = cs.(4) in
  Alcotest.(check string)
    "zip value" "6"
    (List.assoc "burst_len" c4.Matrix.coords);
  Alcotest.(check (Alcotest.float 1e-9))
    "zip applied" 6.0 c4.Matrix.scenario.Scenario.burst_len

let test_parse_crlf () =
  (* CRLF + trailing whitespace parse identically, both for scenario
     and matrix files. *)
  let unix_text = "seed = 5\nn = 64\nsweep loss = 0, 0.1\n" in
  let crlf_text = "seed = 5 \r\nn = 64\t\r\nsweep loss = 0, 0.1 \r\n" in
  let a = spec_exn unix_text and b = spec_exn crlf_text in
  Alcotest.(check int) "same cells" (Matrix.cell_count a) (Matrix.cell_count b);
  Alcotest.(check int) "base n" 64 b.Matrix.base.Scenario.n;
  match Scenario.parse "n = 64 \r\nloss = 0.25\t \r\n" with
  | Error e -> Alcotest.failf "scenario CRLF rejected: %s" e
  | Ok t ->
      Alcotest.(check int) "n" 64 t.Scenario.n;
      Alcotest.(check (Alcotest.float 1e-9)) "loss" 0.25 t.Scenario.loss

let test_parse_errors () =
  expect_error "sweep n 1, 2\n" [ "line 1"; "sweep key = v1, v2" ];
  expect_error "nonsense\n" [ "line 1"; "key = value" ];
  expect_error "zip d = 1, 2\n" [ "line 1"; "zip before any sweep" ];
  expect_error "sweep n = 64, 128\nzip d = 4\n" [ "line 2"; "has 1 value" ];
  expect_error "sweep seed = 1, 2\n" [ "line 1"; "cannot be swept" ];
  expect_error "expect coverage >= \n" [ "line 1"; "expect metric" ];
  expect_error "expect coverage ~= 1\n" [ "line 1"; "unknown comparison" ];
  expect_error "expect bogus >= 1\n" [ "line 1"; "unknown gate metric" ];
  expect_error "sweep n = 8k..1k *2\n" [ "line 1"; "backwards" ];
  expect_error "sweep n = 1k..8k *1\n" [ "line 1"; "bad range step" ];
  expect_error "n = 64\nn = 128\n" [ "line 2"; "duplicate key 'n'" ];
  expect_error "sweep n = 64, 128\nn = 256\n"
    [ "line 2"; "duplicate key 'n'" ];
  expect_error "mode = cloud\n" [ "line 1"; "kernel or service" ];
  (* line numbers stay exact under CRLF *)
  expect_error "n = 64\r\nbogus_key = 1\r\n" [ "line 2"; "unknown key" ];
  (* service keys are invalid in kernel mode ... *)
  expect_error "rate = 50\n" [ "unknown key: rate" ];
  (* ... and kernel-only keys are invalid in service mode *)
  expect_error "mode = service\ncrash_rate = 0.1\n"
    [ "not supported in service mode" ];
  (* cell-level failures carry coordinates *)
  let s = spec_exn "topology = implicit-regular\nsweep n = 63, 64\n" in
  (match Matrix.cells s with
  | Ok _ -> Alcotest.fail "odd implicit n should fail expansion"
  | Error e -> check_fragments "error" e [ "cell 0"; "n = 63"; "even n" ])

(* --- grid expansion (qcheck) -------------------------------------- *)

let axis_lengths_gen =
  QCheck.Gen.(list_size (int_range 1 3) (int_range 1 4))

let spec_of_lengths lengths =
  (* Sweep distinct harmless integer keys. *)
  let keys = [ "n"; "d"; "fanout" ] in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "seed = 42\n";
  List.iteri
    (fun i len ->
      let key = List.nth keys i in
      let values =
        List.init len (fun j ->
            match key with
            | "n" -> string_of_int (64 + (64 * j))
            | "d" -> string_of_int (3 + j)
            | _ -> string_of_int (1 + j))
      in
      Buffer.add_string buf
        (Printf.sprintf "sweep %s = %s\n" key (String.concat ", " values)))
    lengths;
  spec_exn (Buffer.contents buf)

let test_qcheck_grid () =
  let test =
    QCheck.Test.make ~count:100 ~name:"grid expansion invariants"
      (QCheck.make axis_lengths_gen)
      (fun lengths ->
        let lengths = if lengths = [] then [ 2 ] else lengths in
        let spec = spec_of_lengths lengths in
        let cs = cells_exn spec in
        let expected = List.fold_left ( * ) 1 lengths in
        (* cartesian count *)
        if Array.length cs <> expected then
          QCheck.Test.fail_reportf "count %d <> %d" (Array.length cs) expected;
        (* no duplicate coordinates *)
        let coord_strings =
          Array.to_list
            (Array.map
               (fun c ->
                 String.concat ";"
                   (List.map (fun (k, v) -> k ^ "=" ^ v) c.Matrix.coords))
               cs)
        in
        let sorted = List.sort_uniq compare coord_strings in
        if List.length sorted <> expected then
          QCheck.Test.fail_report "duplicate coordinates";
        (* deterministic order: re-expansion is identical *)
        let cs2 = cells_exn spec in
        Array.iteri
          (fun i c ->
            if
              c.Matrix.coords <> cs2.(i).Matrix.coords
              || c.Matrix.cell_seed <> cs2.(i).Matrix.cell_seed
            then QCheck.Test.fail_report "non-deterministic expansion")
          cs;
        (* per-cell seed independence: derived seeds are distinct, so
           distinct cells never share a replication stream *)
        let seeds =
          List.sort_uniq compare
            (Array.to_list (Array.map (fun c -> c.Matrix.cell_seed) cs))
        in
        if List.length seeds <> expected then
          QCheck.Test.fail_report "cells share a seed";
        true)
  in
  QCheck.Test.check_exn test

let test_derived_seeds_distinct_from_neighbors () =
  (* The derived stream depends only on the file seed: same file seed
     => same cell seeds; different file seed => (overwhelmingly)
     different. *)
  let s1 = spec_exn "seed = 1\nsweep n = 64, 128, 256\n" in
  let s1' = spec_exn "seed = 1\nsweep n = 64, 128, 256\n" in
  let s2 = spec_exn "seed = 2\nsweep n = 64, 128, 256\n" in
  let seeds s = Array.map (fun c -> c.Matrix.cell_seed) (cells_exn s) in
  Alcotest.(check (array int)) "reproducible" (seeds s1) (seeds s1');
  Alcotest.(check bool) "file seed matters" false (seeds s1 = seeds s2)

(* --- quick-mode patching ------------------------------------------ *)

let test_patching () =
  let s = spec_exn "seed = 9\nreps = 5\nsweep n = 64, 128, 256\n" in
  let s' =
    match Matrix.set_base s ~key:"reps" ~value:"2" with
    | Ok s -> s
    | Error e -> Alcotest.failf "set_base: %s" e
  in
  Alcotest.(check int) "reps patched" 2 s'.Matrix.base.Scenario.reps;
  (match Matrix.set_base s ~key:"bogus" ~value:"1" with
  | Ok _ -> Alcotest.fail "bogus key accepted"
  | Error _ -> ());
  Alcotest.(check int) "axis untouched" 3 (Matrix.cell_count s')

(* --- gates -------------------------------------------------------- *)

let test_gates () =
  let g m op b = { Matrix.metric = m; op; bound = b } in
  Alcotest.(check bool) "ge pass" true (Matrix.gate_holds (g "x" Matrix.Ge 1.) 1.);
  Alcotest.(check bool) "ge fail" false (Matrix.gate_holds (g "x" Matrix.Ge 1.) 0.99);
  Alcotest.(check bool) "le pass" true (Matrix.gate_holds (g "x" Matrix.Le 2.) 2.);
  Alcotest.(check bool) "lt fail" false (Matrix.gate_holds (g "x" Matrix.Lt 2.) 2.);
  Alcotest.(check bool) "eq pass" true (Matrix.gate_holds (g "x" Matrix.Eq 1.) 1.)

(* --- execution ---------------------------------------------------- *)

let test_run_matches_scenario_run () =
  (* A 1x2 grid with offset seeds runs each cell bit-identically to
     Scenario.run of the equivalent single scenario. *)
  let s =
    spec_exn
      "seed = 11\nn = 128\nd = 8\nreps = 3\nsweep loss = 0, 0.05 seed+=1\n\
       expect coverage >= 0.1\n"
  in
  let result =
    match Matrix.run ~domains:2 s with
    | Ok r -> r
    | Error e -> Alcotest.failf "run: %s" e
  in
  Alcotest.(check int) "outcomes" 2 (List.length result.Matrix.outcomes);
  Alcotest.(check bool) "not truncated" false result.Matrix.truncated;
  List.iteri
    (fun i o ->
      let scenario = o.Matrix.cell.Matrix.scenario in
      Alcotest.(check int) "cell seed" (11 + i) scenario.Scenario.seed;
      let direct = Scenario.run { scenario with domains = 1 } in
      let m k = List.assoc k o.Matrix.metrics in
      Alcotest.(check (Alcotest.float 1e-12))
        "coverage" direct.Scenario.coverage.Rumor_test_support.Summary.mean
        (m "coverage");
      Alcotest.(check (Alcotest.float 1e-12))
        "tx_per_node" direct.Scenario.tx_per_node.Rumor_test_support.Summary.mean
        (m "tx_per_node");
      Alcotest.(check int) "reps" 3 o.Matrix.reps_done;
      (* gates evaluated on the metrics *)
      List.iter
        (fun (_, observed, pass) ->
          Alcotest.(check bool) "gate pass" true pass;
          Alcotest.(check bool) "observed real" false (Float.is_nan observed))
        o.Matrix.gate_results)
    result.Matrix.outcomes

let test_run_pool_bit_identity () =
  (* Shared-pool execution is scheduling-independent: 1 domain and 4
     domains give identical per-cell results. *)
  let s = spec_exn "seed = 3\nn = 96\nreps = 2\nsweep d = 4, 6, 8\n" in
  let run domains =
    match Matrix.run ~domains s with
    | Ok r ->
        List.map
          (fun o ->
            (* timings differ across pools by construction; only the
               RNG-deterministic metrics must match *)
            ( o.Matrix.cell.Matrix.cell_seed,
              List.filter
                (fun (k, _) -> List.mem k Benchdoc.diffable_metrics)
                o.Matrix.metrics ))
          r.Matrix.outcomes
    | Error e -> Alcotest.failf "run: %s" e
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "bit-identical across pools" true (a = b)

let test_run_tasks_interrupt () =
  (* Interruption: joined cleanly, completed slots only. *)
  let tasks = Array.init 4 (fun i -> { Experiment.seed = i; reps = 2 }) in
  Experiment.request_interrupt ();
  let out =
    Experiment.run_tasks ~domains:2 tasks (fun ~task:_ ~rep:_ _rng -> 1)
  in
  Alcotest.(check int) "all tasks present" 4 (Array.length out);
  Array.iter
    (Array.iter (fun slot -> Alcotest.(check bool) "no slot" true (slot = None)))
    out;
  (* reset the flag for subsequent tests *)
  let _ = Experiment.with_interrupt_signals (fun () -> ()) in
  let out =
    Experiment.run_tasks ~domains:2 tasks (fun ~task ~rep _rng ->
        (task * 10) + rep)
  in
  Array.iteri
    (fun t per_rep ->
      Array.iteri
        (fun r slot ->
          Alcotest.(check (option int)) "slot" (Some ((t * 10) + r)) slot)
        per_rep)
    out

let test_service_mode () =
  (match
     Matrix.parse
       "mode = service\nn = 512\nrate = 40\nsweep rate = 20, 40\n"
   with
  | Ok _ -> Alcotest.fail "duplicate rate accepted"
  | Error e -> check_fragments "error" e [ "duplicate key 'rate'" ]);
  let s =
    spec_exn
      "mode = service\nid = SVC\nn = 512\nduration_s = 2\n\
       sweep rate = 20, 40\nexpect lost <= 0\n"
  in
  let cs = cells_exn s in
  Alcotest.(check int) "cells" 2 (Array.length cs);
  Alcotest.(check string)
    "service key swept" "40"
    (List.assoc "rate" cs.(1).Matrix.service);
  Alcotest.(check string)
    "base service key" "2"
    (List.assoc "duration_s" cs.(1).Matrix.service);
  (* kernel run of a service spec without a driver fails cleanly *)
  (match Matrix.run s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "service cells ran without a driver");
  (* with a driver: metrics come back, gates evaluate *)
  let calls = ref [] in
  let result =
    match
      Matrix.run
        ~run_service:(fun c ->
          calls := c.Matrix.cell_index :: !calls;
          [ ("lost", 0.); ("completed", 10.) ])
        s
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "service run: %s" e
  in
  Alcotest.(check (list int)) "cells driven in order" [ 0; 1 ] (List.rev !calls);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        "wall_s injected" true
        (List.mem_assoc "wall_s" o.Matrix.metrics);
      List.iter
        (fun (_, _, pass) -> Alcotest.(check bool) "gate" true pass)
        o.Matrix.gate_results)
    result.Matrix.outcomes

(* --- JSON points and dry run -------------------------------------- *)

let test_point_json_and_dry_run () =
  let s =
    spec_exn "seed = 5\nn = 64\nreps = 1\nsweep d = 4, 8\nexpect coverage >= 0.0\n"
  in
  let result =
    match Matrix.run ~domains:1 s with
    | Ok r -> r
    | Error e -> Alcotest.failf "run: %s" e
  in
  let data = Matrix.data_json result in
  (match data with
  | Json.Obj fields ->
      Alcotest.(check bool) "has points" true (List.mem_assoc "points" fields);
      (match List.assoc "points" fields with
      | Json.List [ Json.Obj p0; _ ] ->
          (match List.assoc "coords" p0 with
          | Json.Obj [ ("d", Json.String "4") ] -> ()
          | _ -> Alcotest.fail "coords wrong")
      | _ -> Alcotest.fail "points wrong")
  | _ -> Alcotest.fail "data not an object");
  (* round-trips through the encoder/parser *)
  (match Json.of_string (Json.to_string data) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "data_json does not round-trip: %s" e);
  match Matrix.dry_run_table s with
  | Error e -> Alcotest.failf "dry run: %s" e
  | Ok table ->
      check_fragments "dry-run table" table
        [ "cell"; "seed"; "coverage >= 0"; "2 cells" ]

let test_results_table () =
  let s = spec_exn "seed = 4\nn = 256\nreps = 2\nsweep d = 4, 8\nsweep loss = 0, 0.1\n" in
  let table domains =
    match Matrix.run ~domains s with
    | Ok r -> Matrix.results_table r
    | Error e -> Alcotest.failf "run: %s" e
  in
  let t1 = table 1 in
  (* header and rule, then one row per cell *)
  Alcotest.(check int)
    "rows" (2 + Matrix.cell_count s)
    (List.length (String.split_on_char '\n' t1));
  check_fragments "results table" t1
    [ "protocol"; "success"; "coverage"; "tx/node"; "rounds"; "final pop" ];
  Alcotest.(check string) "identical across pools" t1 (table 3)

let test_all_crashed_tx_per_node () =
  (* Every node crashes: tx/node is a finite 0 on both the scenario and
     the matrix path, not 0 / 0. *)
  let text = "n = 1024\ncrash_rate = 1.0\nreps = 2\n" in
  (match Scenario.parse text with
  | Error e -> Alcotest.failf "scenario: %s" e
  | Ok s ->
      let r = Scenario.run { s with Scenario.domains = 1 } in
      Alcotest.(check (Alcotest.float 0.))
        "rumor run" 0. r.Scenario.tx_per_node.Rumor_test_support.Summary.mean);
  match Matrix.run ~domains:1 (spec_exn text) with
  | Error e -> Alcotest.failf "run: %s" e
  | Ok r ->
      Alcotest.(check (Alcotest.float 0.))
        "rumor matrix" 0.
        (List.assoc "tx_per_node" (List.hd r.Matrix.outcomes).Matrix.metrics)

(* [heap_bytes_per_node] measures the cell, not the process: a small
   cell reads its per-node state as a positive figure, and the same
   figure when it runs first and when a cell that allocates and drops a
   larger state ran before it. Boxed per-node records are small values
   the rep promotes; they must count, or the A13 and CI_FAULTS gates
   could not see a reboxed store. *)
let test_heap_reading_order_free () =
  let heap text =
    match Matrix.run ~domains:1 (spec_exn text) with
    | Error e -> Alcotest.failf "run: %s" e
    | Ok r ->
        List.assoc "heap_bytes_per_node"
          (List.hd r.Matrix.outcomes).Matrix.metrics
  in
  let cell ?(packed = true) ~n ~protocol () =
    Printf.sprintf
      "n = %d\ntopology = implicit-regular\nprotocol = %s\npacked = %b\n\
       reps = 1\n"
      n protocol packed
  in
  let small = cell ~n:65536 ~protocol:"bef" () in
  let first = heap small in
  if not (first > 0.) then
    Alcotest.failf "bef's per-node state read as %g heap bytes per node" first;
  ignore (heap (cell ~n:65536 ~protocol:"push-pull" ()));
  Alcotest.(check (Alcotest.float 0.)) "after a heap-churning cell" first
    (heap small);
  let boxed = heap (cell ~packed:false ~n:65536 ~protocol:"bef" ()) in
  if boxed < first +. 16. then
    Alcotest.failf "boxed state read %g heap bytes per node, packed %g" boxed
      first

(* The committed grids replay the historical bench and CLI seeds; a
   reordered axis or a dropped seed+= annotation would silently move
   every cell onto new streams. *)
let test_committed_grid_seeds () =
  List.iter
    (fun (file, seeds) ->
      match Matrix.parse_file (Filename.concat "../scenarios" file) with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok spec ->
          Alcotest.(check (list int))
            file seeds
            (Array.to_list
               (Array.map (fun c -> c.Matrix.cell_seed) (cells_exn spec))))
    [
      ("matrix_e5.txt", List.init 7 (fun i -> 700 + i));
      ("matrix_e6.txt", List.init 8 (fun i -> 800 + (i / 2)));
      ("matrix_e11.txt", List.init 5 (fun i -> 1400 + i));
      ("matrix_a1.txt", List.init 6 (fun i -> 1800 + i));
      ("matrix_crash.txt", List.init 5 (fun i -> 101 + i));
    ]

(* The bench runs these committed quick twins in place of the full
   files under --quick. A twin may shrink n and reps and carry its own
   gates; everything else (the other base keys, every axis key, its
   seed stride and zips, and the values of axes other than n) must
   match, or --quick silently measures a different experiment. *)
let test_quick_twins_match () =
  let load file =
    match Matrix.parse_file (Filename.concat "../scenarios" file) with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "%s: %s" file e
  in
  List.iter
    (fun (twin_file, full_file) ->
      let twin = load twin_file and full = load full_file in
      let what field = Printf.sprintf "%s vs %s: %s" twin_file full_file field in
      let base (s : Matrix.spec) =
        Scenario.to_text { s.Matrix.base with Scenario.n = 0; reps = 0 }
      in
      Alcotest.(check string) (what "base keys") (base full) (base twin);
      Alcotest.(check bool) (what "mode") true (twin.Matrix.mode = full.Matrix.mode);
      Alcotest.(check bool) (what "seed mode") full.Matrix.offset_seeds
        twin.Matrix.offset_seeds;
      let axis (a : Matrix.axis) =
        ( a.Matrix.axis_key,
          (if a.Matrix.axis_key = "n" then [] else a.Matrix.values),
          a.Matrix.stride,
          a.Matrix.zips )
      in
      Alcotest.(check bool) (what "axes") true
        (List.map axis twin.Matrix.axes = List.map axis full.Matrix.axes))
    [
      ("matrix_ci.txt", "matrix_e1.txt");
      ("matrix_ci_a12.txt", "matrix_a12.txt");
      ("matrix_ci_a13.txt", "matrix_a13.txt");
    ]

(* --- bench document validation and diffing ------------------------ *)

let doc ?(schema = "rumor-bench/1") ?(truncated = false) experiments =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("created_unix", Json.Int 0);
      ("git", Json.String "test");
      ("ocaml", Json.String "5");
      ("argv", Json.List []);
      ("quick", Json.Bool true);
      ("reps", Json.Int 1);
      ("truncated", Json.Bool truncated);
      ("experiments", Json.List experiments);
    ]

let experiment ?(id = "E1") points =
  Json.Obj
    [
      ("id", Json.String id);
      ("title", Json.String "t");
      ("wall_s", Json.Float 1.);
      ("cpu_s", Json.Float 1.);
      ("gc", Json.Obj []);
      ("peak_rss_kb", Json.Int 0);
      ( "data",
        Json.Obj
          [ ("points", Json.List points); ("gates_failed", Json.Int 0) ] );
    ]

let point ?(coords = [ ("n", "64") ]) metrics =
  Json.Obj
    [
      ( "coords",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) coords) );
      ("seed", Json.Int 1);
      ("reps", Json.Int 1);
      ("truncated", Json.Bool false);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics) );
      ("gates", Json.List []);
    ]

let test_validate () =
  Alcotest.(check (list string))
    "valid doc" []
    (List.map Benchdoc.error_to_string
       (Benchdoc.validate (doc [ experiment [ point [ ("coverage", 1.) ] ] ])));
  (* empty experiments is its own error class *)
  (match Benchdoc.validate (doc []) with
  | [ Benchdoc.Empty_experiments ] -> ()
  | errs ->
      Alcotest.failf "wanted Empty_experiments, got: %s"
        (String.concat "; " (List.map Benchdoc.error_to_string errs)));
  (* schema break is Malformed *)
  match Benchdoc.validate (doc ~schema:"bogus/9" []) with
  | errs when List.exists (function Benchdoc.Malformed _ -> true | _ -> false) errs
    -> ()
  | errs ->
      Alcotest.failf "wanted Malformed, got: %s"
        (String.concat "; " (List.map Benchdoc.error_to_string errs))

let test_diff () =
  let baseline =
    doc
      [
        experiment
          [
            point ~coords:[ ("n", "64") ] [ ("coverage", 1.0); ("rounds", 10.) ];
            point ~coords:[ ("n", "128") ] [ ("coverage", 1.0); ("rounds", 12.) ];
          ];
      ]
  in
  (* identical: clean *)
  let r = Benchdoc.diff ~baseline ~candidate:baseline ~tolerance_pct:5. in
  Alcotest.(check (list string)) "no failures" [] r.Benchdoc.failures;
  (* within tolerance: clean *)
  let close =
    doc
      [
        experiment
          [
            point ~coords:[ ("n", "64") ] [ ("coverage", 1.0); ("rounds", 10.3) ];
            point ~coords:[ ("n", "128") ] [ ("coverage", 1.0); ("rounds", 12.) ];
          ];
      ]
  in
  let r = Benchdoc.diff ~baseline ~candidate:close ~tolerance_pct:5. in
  Alcotest.(check (list string)) "within tolerance" [] r.Benchdoc.failures;
  (* beyond tolerance: failure names the cell and metric *)
  let drifted =
    doc
      [
        experiment
          [
            point ~coords:[ ("n", "64") ] [ ("coverage", 1.0); ("rounds", 20.) ];
            point ~coords:[ ("n", "128") ] [ ("coverage", 1.0); ("rounds", 12.) ];
          ];
      ]
  in
  let r = Benchdoc.diff ~baseline ~candidate:drifted ~tolerance_pct:5. in
  Alcotest.(check int) "one failure" 1 (List.length r.Benchdoc.failures);
  let f = List.hd r.Benchdoc.failures in
  check_fragments "failure" f [ "n = 64"; "rounds" ];
  (* wall_s is not diffed (noise); only the RNG-deterministic set is *)
  let slow =
    doc
      [
        experiment
          [
            point ~coords:[ ("n", "64") ]
              [ ("coverage", 1.0); ("rounds", 10.); ("wall_s", 99.) ];
            point ~coords:[ ("n", "128") ]
              [ ("coverage", 1.0); ("rounds", 12.); ("wall_s", 99.) ];
          ];
      ]
  in
  let r = Benchdoc.diff ~baseline ~candidate:slow ~tolerance_pct:5. in
  Alcotest.(check (list string)) "wall ignored" [] r.Benchdoc.failures;
  (* a baseline cell missing from the candidate fails ... *)
  let missing = doc [ experiment [ point ~coords:[ ("n", "64") ] [ ("coverage", 1.0) ] ] ] in
  let r = Benchdoc.diff ~baseline ~candidate:missing ~tolerance_pct:5. in
  Alcotest.(check bool) "missing cell fails" true (r.Benchdoc.failures <> []);
  (* ... unless the candidate is truncated (partial run) *)
  let truncated_missing =
    doc ~truncated:true
      [
        experiment
          [ point ~coords:[ ("n", "64") ] [ ("coverage", 1.0); ("rounds", 10.) ] ];
      ]
  in
  let r = Benchdoc.diff ~baseline ~candidate:truncated_missing ~tolerance_pct:5. in
  Alcotest.(check (list string)) "truncated tolerated" [] r.Benchdoc.failures;
  Alcotest.(check bool) "but noted" true (r.Benchdoc.notes <> []);
  (* candidate gate failures surface even when scalars match *)
  let gate_failed =
    doc
      [
        Json.Obj
          [
            ("id", Json.String "E1");
            ("title", Json.String "t");
            ("wall_s", Json.Float 1.);
            ("cpu_s", Json.Float 1.);
            ("gc", Json.Obj []);
            ( "data",
              Json.Obj
                [
                  ( "points",
                    Json.List
                      [
                        point ~coords:[ ("n", "64") ]
                          [ ("coverage", 1.0); ("rounds", 10.) ];
                        point ~coords:[ ("n", "128") ]
                          [ ("coverage", 1.0); ("rounds", 12.) ];
                      ] );
                  ("gates_failed", Json.Int 2);
                ] );
          ];
      ]
  in
  let r = Benchdoc.diff ~baseline ~candidate:gate_failed ~tolerance_pct:5. in
  Alcotest.(check bool) "gate failures fail the diff" true
    (r.Benchdoc.failures <> [])

let () =
  Alcotest.run "rumor_matrix"
    [
      ( "grammar",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "ranges" `Quick test_parse_range;
          Alcotest.test_case "zip + stride" `Quick test_parse_zip_and_stride;
          Alcotest.test_case "crlf" `Quick test_parse_crlf;
          Alcotest.test_case "errors pin lines" `Quick test_parse_errors;
        ] );
      ( "grid",
        [
          Alcotest.test_case "qcheck invariants" `Quick test_qcheck_grid;
          Alcotest.test_case "derived seeds" `Quick
            test_derived_seeds_distinct_from_neighbors;
          Alcotest.test_case "quick patching" `Quick test_patching;
          Alcotest.test_case "gates" `Quick test_gates;
        ] );
      ( "run",
        [
          Alcotest.test_case "matches Scenario.run" `Quick
            test_run_matches_scenario_run;
          Alcotest.test_case "pool bit-identity" `Quick
            test_run_pool_bit_identity;
          Alcotest.test_case "interrupt" `Quick test_run_tasks_interrupt;
          Alcotest.test_case "service mode" `Quick test_service_mode;
          Alcotest.test_case "json + dry run" `Quick
            test_point_json_and_dry_run;
          Alcotest.test_case "results table" `Quick test_results_table;
          Alcotest.test_case "all crashed tx/node" `Quick
            test_all_crashed_tx_per_node;
          Alcotest.test_case "heap reading ignores cell order" `Quick
            test_heap_reading_order_free;
          Alcotest.test_case "committed grid seeds" `Quick
            test_committed_grid_seeds;
          Alcotest.test_case "quick twins match" `Quick test_quick_twins_match;
        ] );
      ( "benchdoc",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "diff" `Quick test_diff;
        ] );
    ]
