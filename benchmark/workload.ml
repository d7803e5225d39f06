(* Workload files are matrix-grammar files (a scenario plus [id],
   [title] and [mode] directives) under benchmark/workloads/, so the
   benchmark adds no configuration language of its own. *)

module Scenario = Rumor_cli.Scenario
module Matrix = Rumor_cli.Matrix

let dir = Filename.concat "benchmark" "workloads"

(* The names BENCHMARK.json lists, in run order. *)
let names =
  [
    "bef-implicit-37k"; "pushpull-regular-256k"; "bef-faults-repair-32k";
    "serve-1k";
  ]

type phase = {
  rate : float;  (** open-loop sessions/s; unused when [closed > 0] *)
  closed : int;  (** outstanding sessions of a closed loop; 0 = open loop *)
  share : float;  (** fraction of the run's seconds *)
}

type kind =
  | Kernel of Scenario.t
  | Serve of { session : Scenario.t; workers : int; phases : phase list }

type t = {
  name : string;
  title : string;
  seed : int;  (** default seed: the file's [seed] key *)
  kind : kind;
}

let ( let* ) = Result.bind

let float_key service key ~default =
  match List.assoc_opt key service with
  | None -> Ok default
  | Some v -> (
      match float_of_string_opt v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%s: not a number: %s" key v))

let of_spec name (spec : Matrix.spec) =
  let base = spec.Matrix.base in
  if spec.Matrix.id <> name then
    Error (Printf.sprintf "id is %S, expected %S" spec.Matrix.id name)
  else if spec.Matrix.gates <> [] then
    Error "expect gates are not evaluated here; checks live in the benchmark"
  else
    match spec.Matrix.mode with
    | Matrix.Kernel ->
        let* sc = Scenario.validate base in
        if spec.Matrix.axes <> [] then Error "a kernel workload has no sweep axes"
        else if sc.churn_rate >= 0. || sc.join_prob > 0. || sc.leave_prob > 0.
        then Error "churn is not supported by the benchmark's direct calls"
        else
          Ok { name; title = spec.Matrix.title; seed = sc.seed; kind = Kernel sc }
    | Matrix.Service ->
        let* cells = Matrix.cells spec in
        let* phases =
          Array.fold_right
            (fun (c : Matrix.cell) acc ->
              let* acc = acc in
              let* rate = float_key c.Matrix.service "rate" ~default:0. in
              let* closed = float_key c.Matrix.service "closed" ~default:0. in
              let* dur = float_key c.Matrix.service "duration_s" ~default:0. in
              Ok ({ rate; closed = int_of_float closed; share = dur } :: acc))
            cells (Ok [])
        in
        let total = List.fold_left (fun a p -> a +. p.share) 0. phases in
        let phases = List.map (fun p -> { p with share = p.share /. total }) phases in
        let open_rates =
          List.filter_map
            (fun p -> if p.closed = 0 then Some p.rate else None)
            phases
        in
        let* workers = float_key spec.Matrix.service_base "workers" ~default:1. in
        let* session = Scenario.validate base in
        (* The serve metrics are named after these rates
           (server.io_ms.r100, serve.p99_ms.r200, ...). *)
        if open_rates <> [ 100.; 200. ] then
          Error "serve phases must be open loops at 100/s then 200/s"
        else if not (List.exists (fun p -> p.closed > 0) phases) then
          Error "serve phases need a closed loop"
        else if total <= 0. then Error "serve phases need duration_s"
        else
          Ok
            {
              name;
              title = spec.Matrix.title;
              seed = session.Scenario.seed;
              kind = Serve { session; workers = int_of_float workers; phases };
            }

let load name =
  let path = Filename.concat dir (name ^ ".txt") in
  Result.map_error
    (fun e -> path ^ ": " ^ e)
    (Result.bind (Matrix.parse_file path) (of_spec name))
