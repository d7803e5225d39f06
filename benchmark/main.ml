(* The repo benchmark. Run from the repository root:

     dune exec benchmark/main.exe -- run [--workload W] [--seed S]
       [--seconds T] [--trace 0|1 | --traced] [--json FILE]
     dune exec benchmark/main.exe -- compare --parent A/*.json --change B/*.json
     dune exec benchmark/main.exe -- pin > benchmark/expected.json
     dune exec benchmark/main.exe -- selftest

   [run] prints one "workload metric value unit" line per metric, then
   a JSON summary as the last line, and exits 1 when a check fails.
   Without --workload it runs every workload, each in its own child
   process, one at a time. README.md in this directory documents the
   workloads, metrics and the A/B protocol. *)

module Json = Rumor_obs.Json
module Rng = Rumor_rng.Rng
module Scenario = Rumor_cli.Scenario

(* BENCHMARK.json's run_seconds; the selftest checks that they agree. *)
let default_seconds = 25.
let benchmark_json = "BENCHMARK.json"

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Ok j -> Ok j
      | Error e -> Error (path ^ ": " ^ e))

let run_one (w : Workload.t) ~seed ~seconds ~traced =
  match w.kind with
  | Workload.Kernel sc -> Kernel_bench.run w sc ~seed ~seconds ~traced
  | Workload.Serve { session; workers; phases } ->
      Serve_bench.run session ~workers ~phases ~seed ~seconds ~traced

(* Every metric of the run's set, in vocabulary order. A per-layer
   metric of a layer the workload does not exercise reads 0; a missing
   end-to-end metric is a bug. *)
let complete ~traced (r : Metric.run) =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name r.metrics with
      | Some v -> (name, v, unit)
      | None when traced -> (name, 0., unit)
      | None -> failwith ("no value for " ^ name))
    (if traced then Metric.per_layer else Metric.end_to_end)

let is_correct metrics (r : Metric.run) =
  r.failed = 0 && r.failures = []
  && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics

let experiment (w : Workload.t) ~seed ~seconds ~traced metrics
    (r : Metric.run) span =
  let span_fields =
    match Rumor_obs.Metrics.span_to_json span with Json.Obj fs -> fs | _ -> []
  in
  Json.Obj
    ([ ("id", Json.String w.name); ("title", Json.String w.title) ]
    @ span_fields
    @ [
        ( "data",
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("seconds", Json.Float seconds);
              ("traced", Json.Bool traced);
              ("correct", Json.Bool (is_correct metrics r));
              ("attempted", Json.Int r.attempted);
              ("failed", Json.Int r.failed);
              ( "failures",
                Json.List (List.map (fun f -> Json.String f) r.failures) );
              ( "metrics",
                Json.Obj (List.map (fun (n, v, _) -> (n, Json.Float v)) metrics)
              );
              ( "units",
                Json.Obj (List.map (fun (n, _, u) -> (n, Json.String u)) metrics)
              );
              ("records", Json.List r.records);
            ] );
      ])

let document experiments =
  Json.Obj
    [
      ("schema", Json.String "rumor-bench/1");
      ("created_unix", Json.Float (Unix.gettimeofday ()));
      ("git", Json.Null);
      ("ocaml", Json.String Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
      ( "argv",
        Json.List
          (List.map
             (fun a -> Json.String a)
             (Filename.basename Sys.executable_name
             :: List.tl (Array.to_list Sys.argv))) );
      ("quick", Json.Bool false);
      ("reps", Json.Int 1);
      ("experiments", Json.List experiments);
    ]

let write_json path j =
  Out_channel.with_open_bin path (fun oc -> Json.to_channel oc j)

let run_workload name ~seed ~seconds ~traced ~json =
  let w =
    match Workload.load name with Ok w -> w | Error e -> die "%s" e
  in
  let seed = Option.value seed ~default:w.seed in
  let r, span =
    Rumor_obs.Metrics.timed (fun () -> run_one w ~seed ~seconds ~traced)
  in
  let metrics = complete ~traced r in
  let correct = is_correct metrics r in
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %.12g %s\n" name n v u)
    metrics;
  List.iteri
    (fun i f -> if i < 20 then prerr_endline (name ^ ": FAILED " ^ f))
    r.failures;
  Option.iter
    (fun path ->
      write_json path
        (document [ experiment w ~seed ~seconds ~traced metrics r span ]))
    json;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) ->
                     ( n,
                       Json.Obj
                         [ ("value", Json.Float v); ("unit", Json.String u) ] ))
                   metrics) );
          ]));
  if correct then 0 else 1

(* Each workload in a child process, one at a time: nothing runs beside
   it, and its peak RSS is its own. *)
let run_all ~seed ~seconds ~traced ~json =
  let child name =
    let path = Option.map (fun p -> p ^ "." ^ name) json in
    let args =
      [ "run"; "--workload"; name; "--seconds"; Printf.sprintf "%g" seconds;
        "--trace"; (if traced then "1" else "0") ]
      @ (match seed with Some s -> [ "--seed"; string_of_int s ] | None -> [])
      @ match path with Some p -> [ "--json"; p ] | None -> []
    in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        Unix.stdin Unix.stdout Unix.stderr
    in
    let code =
      match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 2
    in
    (code, path)
  in
  let outs = List.map child Workload.names in
  Option.iter
    (fun path ->
      let exps =
        List.concat_map
          (fun (_, p) ->
            match Option.map read_json p with
            | Some (Ok doc) ->
                Option.iter Sys.remove p;
                Option.value ~default:[]
                  (Option.bind (Json.member "experiments" doc) Json.to_list)
            | _ -> [])
          outs
      in
      write_json path (document exps))
    json;
  if List.for_all (fun (c, _) -> c = 0) outs then 0 else 1

(* --- compare --- *)

type bound = { lower_better : bool; bound : float }

let bounds () =
  let doc =
    match read_json benchmark_json with Ok j -> j | Error e -> die "%s" e
  in
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_string_opt,
          Option.bind (Json.member "better" m) Json.to_string_opt,
          Option.bind (Json.member "bound" m) Json.to_float )
      with
      | Some n, Some b, Some x ->
          Some (n, { lower_better = b = "lower"; bound = x })
      | _ -> None)
    (Option.value ~default:[]
       (Option.bind (Json.member "end_to_end" doc) Json.to_list))

(* (workload, metric) -> value, for every experiment of a document. *)
let values_of path =
  let doc = match read_json path with Ok j -> j | Error e -> die "%s" e in
  List.concat_map
    (fun e ->
      match
        ( Option.bind (Json.member "id" e) Json.to_string_opt,
          Option.bind (Json.member "data" e) (Json.member "metrics") )
      with
      | Some id, Some (Json.Obj ms) ->
          List.filter_map
            (fun (m, v) -> Option.map (fun x -> ((id, m), x)) (Json.to_float v))
            ms
      | _ -> [])
    (Option.value ~default:[]
       (Option.bind (Json.member "experiments" doc) Json.to_list))

(* The rule of the A/B protocol (README.md): a regression is a median
   worse by more than the bound; a gain needs 9 in 10 pairs won and a
   median shift beyond the parent's own quartile spread; a spread wider
   than the bound leaves the metric unresolved unless every change run
   beats every parent run. Shifts and spreads below the metric's
   absolute floor count as noise. *)
let verdict ~floor b parent change =
  let med = Metric.median and q l p = Metric.quantile l p in
  let worse x y = if b.lower_better then x > y else x < y in
  let pm = med parent and cm = med change in
  let iqr l = q l 0.75 -. q l 0.25 in
  let worse_by = (cm -. pm) *. if b.lower_better then 1. else -1. in
  let delta = worse_by /. pm in
  (* Run i of each side forms pair i; ties count for neither side. *)
  let n = min (List.length parent) (List.length change) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first parent) (first change) in
  let wins = List.length (List.filter (fun (p, c) -> worse p c) pairs) in
  let win_rate = Metric.ratio (float_of_int wins) (float_of_int n) in
  let spread = Float.max (iqr parent /. pm) (iqr change /. cm) in
  let noisy =
    spread > b.bound && Float.max (iqr parent) (iqr change) > floor
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> worse p c) parent) change
  in
  let v =
    if delta > b.bound && worse_by > floor then "regressed"
    else if noisy then if all_better then "improved" else "unresolved"
    else if
      win_rate >= 0.9 && delta < 0.
      && Float.abs (cm -. pm) > Float.max floor (iqr parent)
    then "improved"
    else "unchanged"
  in
  (v, win_rate)

let compare_docs parents changes =
  let bounds = bounds () in
  let pv = List.map values_of parents and cv = List.map values_of changes in
  let keys =
    List.sort_uniq compare
      (List.concat_map (List.map fst) (pv @ cv))
  in
  let bad = ref false in
  Printf.printf "%-24s %-18s %28s %28s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun ((w, m) as key) ->
      match List.assoc_opt m bounds with
      | None -> ()
      | Some b ->
          let side vs = List.filter_map (List.assoc_opt key) vs in
          let p = side pv and c = side cv in
          if p <> [] && c <> [] then begin
            let floor = Metric.floor m in
            let v, win = verdict ~floor b p c in
            if v = "regressed" || v = "unresolved" then bad := true;
            let show l =
              Printf.sprintf "%.4g [%.4g, %.4g]" (Metric.median l)
                (Metric.quantile l 0.25) (Metric.quantile l 0.75)
            in
            Printf.printf "%-24s %-18s %28s %28s %5.0f%%  %s (bound %g%%%s)\n"
              w m (show p) (show c) (100. *. win) v (100. *. b.bound)
              (if floor > 0. then Printf.sprintf ", floor %g" floor else "")
          end)
    keys;
  if !bad then 1 else 0

(* --- selftest --- *)

let selftest () =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match read_json benchmark_json with
  | Error e -> fail "%s" e
  | Ok b ->
      let named key =
        List.map
          (fun m ->
            ( Option.value ~default:"" (Option.bind (Json.member "name" m) Json.to_string_opt),
              Option.value ~default:"" (Option.bind (Json.member "unit" m) Json.to_string_opt) ))
          (Option.value ~default:[] (Option.bind (Json.member key b) Json.to_list))
      in
      if List.map fst (named "workloads") <> Workload.names then
        fail "BENCHMARK.json workloads differ from Workload.names";
      if named "end_to_end" <> Metric.end_to_end then
        fail "BENCHMARK.json end_to_end differs from Metric.end_to_end";
      if named "per_layer" <> Metric.per_layer then
        fail "BENCHMARK.json per_layer differs from Metric.per_layer";
      if Option.bind (Json.member "run_seconds" b) Json.to_float
         <> Some default_seconds
      then fail "BENCHMARK.json run_seconds differs from default_seconds");
  let experiments =
    List.concat_map
      (fun name ->
        match Workload.load name with
        | Error e ->
            fail "%s" e;
            []
        | Ok w ->
            (* Another seed than the pinned one, at toy size: one or two
               broadcasts, or a second of service load. *)
            let seed = w.seed + 1 in
            let smoke, seconds =
              match w.kind with
              | Workload.Kernel sc ->
                  let sc = { sc with Scenario.n = 4096 } in
                  let stream () = Rng.fork (Rng.create seed) 0 in
                  let reference = Scenario.run_rep sc (stream ()) in
                  let rng = stream () in
                  let s = Kernel_bench.setup sc rng in
                  if not (Kernel_bench.same_result reference (Kernel_bench.broadcast sc s rng))
                  then fail "%s: direct call differs from Scenario.run_rep" name;
                  (match Kernel_bench.load_pins name with
                  | Ok (Some (_, outs)) when Array.length outs > 0 -> ()
                  | Ok _ -> fail "%s: no pinned outputs in expected.json" name
                  | Error e -> fail "%s" e);
                  ({ w with kind = Workload.Kernel sc }, 0.05)
              | Workload.Serve _ -> (w, 1.)
            in
            List.map
              (fun traced ->
                let r, span =
                  Rumor_obs.Metrics.timed (fun () ->
                      run_one smoke ~seed ~seconds ~traced)
                in
                List.iter (fun f -> fail "%s: %s" name f) r.failures;
                let metrics = complete ~traced r in
                if not (is_correct metrics r) then
                  fail "%s (traced %b): incorrect run" name traced;
                experiment smoke ~seed ~seconds ~traced metrics r span)
              [ false; true ])
      Workload.names
  in
  List.iter
    (fun e -> fail "document: %s" (Rumor_obs.Benchdoc.error_to_string e))
    (Rumor_obs.Benchdoc.validate (document experiments));
  match List.rev !errors with
  | [] ->
      print_endline "benchmark selftest: ok";
      0
  | es ->
      List.iter prerr_endline es;
      1

(* --- command line --- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | [] -> List.rev acc
    | f :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
        let vals, rest =
          let rec take vs = function
            | v :: r when not (String.length v > 2 && String.sub v 0 2 = "--") ->
                take (v :: vs) r
            | r -> (List.rev vs, r)
          in
          take [] rest
        in
        flags ((f, vals) :: acc) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  let one fs name conv =
    match List.assoc_opt name fs with
    | None -> None
    | Some [ v ] -> (
        match conv v with Some x -> Some x | None -> die "bad value for %s: %S" name v)
    | Some _ -> die "%s takes one value" name
  in
  let code =
    match args with
    | "run" :: rest ->
        let fs = flags [] rest in
        let seed = one fs "--seed" int_of_string_opt in
        let seconds =
          Option.value (one fs "--seconds" float_of_string_opt)
            ~default:default_seconds
        in
        let traced =
          List.mem_assoc "--traced" fs
          || one fs "--trace" int_of_string_opt = Some 1
        in
        let json = one fs "--json" Option.some in
        (match one fs "--workload" Option.some with
        | Some name when List.mem name Workload.names ->
            run_workload name ~seed ~seconds ~traced ~json
        | Some name -> die "unknown workload %S (one of: %s)" name (String.concat ", " Workload.names)
        | None -> run_all ~seed ~seconds ~traced ~json)
    | "compare" :: rest ->
        let fs = flags [] rest in
        let files k = Option.value (List.assoc_opt k fs) ~default:[] in
        if files "--parent" = [] || files "--change" = [] then
          die "compare needs --parent FILES and --change FILES";
        compare_docs (files "--parent") (files "--change")
    | [ "pin" ] ->
        let entries =
          List.filter_map
            (fun name ->
              match Workload.load name with
              | Ok { kind = Workload.Kernel sc; seed; _ } ->
                  Some (name, seed, Kernel_bench.pin sc ~seed)
              | Ok _ -> None
              | Error e -> die "%s" e)
            Workload.names
        in
        (* One broadcast per line, so a re-pin diffs line by line. *)
        let sep i l = if i < List.length l - 1 then "," else "" in
        print_endline "{";
        List.iteri
          (fun i (name, seed, outs) ->
            Printf.printf "  %s: {\"seed\": %d, \"broadcasts\": [\n"
              (Json.to_string (Json.String name)) seed;
            List.iteri
              (fun j o ->
                Printf.printf "    %s%s\n"
                  (Json.to_string (Kernel_bench.outputs_to_json o))
                  (sep j outs))
              outs;
            Printf.printf "  ]}%s\n" (sep i entries))
          entries;
        print_endline "}";
        0
    | [ "selftest" ] -> selftest ()
    | _ ->
        prerr_endline
          "usage: main.exe (run [--workload W] [--seed S] [--seconds T] \
           [--trace 0|1] [--json FILE] | compare --parent FILES --change \
           FILES | pin | selftest)";
        2
  in
  exit code
