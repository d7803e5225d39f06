module Json = Rumor_obs.Json

(* NDJSON line protocol: one JSON object per line, both directions.
   This is the hostile boundary of the service, so parsing is strict —
   bounded nesting depth (well under [Json.default_max_depth]; a
   protocol object is depth 2), whitelisted ops and fields, and every
   numeric range checked by [Session.validate_spec] before a session is
   built. Unknown fields are rejected rather than ignored: a client
   that misspells [burst_loss] should learn now, not in production. *)

let max_depth = 32

type request =
  | Submit of Session.spec * bool  (** spec, notify *)
  | Poll of int
  | Cancel of int
  | Stats
  | Shutdown
  | Ping

let id_to_string id = Printf.sprintf "s-%d" id

(* Only the form [id_to_string] prints: decimal digits without a leading
   zero. [int_of_string] alone would also take OCaml literals such as
   [0x10], [0b1], [1_0] or [+5] and answer for a different id. *)
let id_of_string s =
  let l = String.length s in
  if
    l > 2
    && String.sub s 0 2 = "s-"
    && s.[2] <> '0'
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 2 (l - 2))
  then int_of_string_opt (String.sub s 2 (l - 2))
  else None

(* --- field accessors over Json.t --- *)

let ( let* ) = Result.bind

let obj_fields = function
  | Json.Obj fs -> Ok fs
  | _ -> Error "request must be a JSON object"

let field fs name = List.assoc_opt name fs

let as_float name = function
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float f -> Ok f
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let as_int name = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S must be an integer" name)

let as_bool name = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let as_string name = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let opt fs name conv ~default =
  match field fs name with
  | None | Some Json.Null -> Ok default
  | Some v -> conv name v

let submit_fields =
  [
    "op"; "n"; "d"; "protocol"; "topology"; "seed"; "alpha"; "fanout";
    "link_loss"; "burst_loss"; "burst_len"; "crash_worker"; "wedge_ms";
    "deadline_ms"; "trace"; "ref"; "notify";
  ]

let check_known fs allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fs with
  | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
  | None -> Ok ()

let parse_submit fs =
  let d = Session.default_spec in
  let* () = check_known fs submit_fields in
  let* n = opt fs "n" as_int ~default:d.Session.n in
  let* dd = opt fs "d" as_int ~default:d.Session.d in
  let* protocol = opt fs "protocol" as_string ~default:d.Session.protocol in
  let* topology = opt fs "topology" as_string ~default:d.Session.topology in
  let* seed = opt fs "seed" as_int ~default:d.Session.seed in
  let* alpha = opt fs "alpha" as_float ~default:d.Session.alpha in
  let* fanout = opt fs "fanout" as_int ~default:d.Session.fanout in
  let* link_loss = opt fs "link_loss" as_float ~default:d.Session.link_loss in
  let* burst_loss = opt fs "burst_loss" as_float ~default:d.Session.burst_loss in
  let* burst_len = opt fs "burst_len" as_float ~default:d.Session.burst_len in
  let* crash_worker =
    opt fs "crash_worker" as_bool ~default:d.Session.crash_worker
  in
  let* wedge_ms = opt fs "wedge_ms" as_float ~default:d.Session.wedge_ms in
  let* deadline_ms =
    match field fs "deadline_ms" with
    | None | Some Json.Null -> Ok None
    | Some v ->
        let* f = as_float "deadline_ms" v in
        Ok (Some f)
  in
  let* collect_trace = opt fs "trace" as_bool ~default:false in
  let* client_ref =
    match field fs "ref" with
    | None | Some Json.Null -> Ok None
    | Some v ->
        let* r = as_string "ref" v in
        if String.length r > 256 then Error "field \"ref\" too long (max 256)"
        else Ok (Some r)
  in
  let* notify = opt fs "notify" as_bool ~default:false in
  let spec =
    {
      Session.n;
      d = dd;
      protocol;
      topology;
      seed;
      alpha;
      fanout;
      link_loss;
      burst_loss;
      burst_len;
      crash_worker;
      wedge_ms;
      deadline_ms;
      collect_trace;
      client_ref;
    }
  in
  let* spec = Session.validate_spec spec in
  Ok (Submit (spec, notify))

let parse_id fs op =
  let* () = check_known fs [ "op"; "id" ] in
  match field fs "id" with
  | Some (Json.String s) -> (
      match id_of_string s with
      | Some id -> Ok id
      | None -> Error (Printf.sprintf "%s: malformed id %S" op s))
  | _ -> Error (Printf.sprintf "%s: missing string field \"id\"" op)

let parse_request line =
  let* json =
    match Json.of_string ~max_depth line with
    | Ok j -> Ok j
    | Error e -> Error ("bad json: " ^ e)
  in
  let* fs = obj_fields json in
  let* op =
    match field fs "op" with
    | Some (Json.String s) -> Ok s
    | _ -> Error "missing string field \"op\""
  in
  match op with
  | "submit" -> parse_submit fs
  | "poll" ->
      let* id = parse_id fs "poll" in
      Ok (Poll id)
  | "cancel" ->
      let* id = parse_id fs "cancel" in
      Ok (Cancel id)
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "ping" -> Ok Ping
  | _ -> Error (Printf.sprintf "unknown op %S" op)

(* --- responses --- *)

let ref_field (s : Session.t) =
  match s.Session.spec.Session.client_ref with
  | None -> []
  | Some r -> [ ("ref", Json.String r) ]

let submitted (s : Session.t) =
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("op", Json.String "submit");
       ("id", Json.String (id_to_string s.Session.id));
       ("state", Json.String (Session.state_name s.Session.state));
       ("degraded", Json.Bool s.Session.degraded);
     ]
    @ ref_field s)

let rejected ?client_ref ~reason ~retry_after_ms () =
  Json.Obj
    ([
       ("ok", Json.Bool false);
       ("op", Json.String "submit");
       ("error", Json.String reason);
       ("retry_after_ms", Json.Float retry_after_ms);
     ]
    @
    match client_ref with
    | None -> []
    | Some r -> [ ("ref", Json.String r) ])

let status_body (s : Session.t) =
  [
    ("id", Json.String (id_to_string s.Session.id));
    ("state", Json.String (Session.state_name s.Session.state));
    ("protocol", Json.String s.Session.protocol);
    ("degraded", Json.Bool s.Session.degraded);
    ("attempts", Json.Int s.Session.attempts);
    ("retries", Json.Int s.Session.retries);
    ("failovers", Json.Int s.Session.failovers);
  ]
  @ (if Session.is_terminal s then
       [ ("latency_ms", Json.Float (Session.latency_s s *. 1e3)) ]
     else [])
  @ (match s.Session.last_error with
    | Some e -> [ ("error", Json.String e) ]
    | None -> [])
  @ (match s.Session.stats with
    | Some st ->
        [
          ( "result",
            Json.Obj
              [
                ("rounds", Json.Int st.Session.rounds);
                ("informed", Json.Int st.Session.informed);
                ("population", Json.Int st.Session.population);
                ("transmissions", Json.Int st.Session.transmissions);
              ] );
        ]
    | None -> [])
  @ ref_field s

let status s =
  Json.Obj
    (([ ("ok", Json.Bool true); ("op", Json.String "poll") ] : (string * Json.t) list)
    @ status_body s)

let event s = Json.Obj (("event", Json.String "session") :: status_body s)

let stats ~service ~wakeups =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "stats");
      ("stats", service);
      ("wakeups", Json.Int wakeups);
    ]

let pong = Json.Obj [ ("ok", Json.Bool true); ("op", Json.String "ping") ]

let draining =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "shutdown");
      ("state", Json.String "draining");
    ]

let error msg =
  Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let not_found id =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.String "no such session");
      ("id", Json.String (id_to_string id));
    ]

let to_line j = Json.to_string j ^ "\n"

(* --- line framing ---

   Both ends of the protocol accumulate raw reads and split on '\n'.
   A line-length cap is part of input hardening: without one, a peer
   that never sends a newline grows the buffer without bound. *)

module Linebuf = struct
  type t = { buf : Buffer.t; max_line : int; mutable overflowed : bool }

  let create ?(max_line = 1 lsl 20) () =
    if max_line < 1 then invalid_arg "Linebuf.create: max_line < 1";
    { buf = Buffer.create 4096; max_line; overflowed = false }

  let overflowed t = t.overflowed

  (* Feed a chunk, return the completed lines (without terminators).
     Once the pending partial line exceeds [max_line] the buffer is
     poisoned: [overflowed] stays set and no further lines are
     produced — the connection should be dropped. *)
  let feed t bytes off len =
    if t.overflowed then []
    else begin
      Buffer.add_subbytes t.buf bytes off len;
      let s = Buffer.contents t.buf in
      let lines = ref [] in
      let start = ref 0 in
      String.iteri
        (fun i c ->
          if c = '\n' then begin
            let line = String.sub s !start (i - !start) in
            let line =
              (* tolerate CRLF *)
              if String.length line > 0 && line.[String.length line - 1] = '\r'
              then String.sub line 0 (String.length line - 1)
              else line
            in
            lines := line :: !lines;
            start := i + 1
          end)
        s;
      Buffer.clear t.buf;
      let rest = String.sub s !start (String.length s - !start) in
      if String.length rest > t.max_line then t.overflowed <- true
      else Buffer.add_string t.buf rest;
      if List.exists (fun l -> String.length l > t.max_line) !lines then begin
        t.overflowed <- true;
        []
      end
      else List.rev !lines
    end
end
