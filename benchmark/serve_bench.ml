(* serve-1k: [Server.run] in-process on one end of a socketpair (the
   [Fd] transport, [~signals:false]) while this module's NDJSON client
   drives the other end through the workload's phases. Each session is
   a small broadcast, so the wire, server, service, supervisor and
   mailbox layers dominate its latency.

   Open-loop sessions are timed from the moment they were due, so a
   stall also charges the sessions queued behind it; closed-loop ones
   from their send. Latencies are kept as exact samples, not in
   [Obs.Latency]'s 9%-wide buckets. *)

module Rng = Rumor_rng.Rng
module Json = Rumor_obs.Json
module Scenario = Rumor_cli.Scenario
module Wire = Rumor_serve.Wire
module Server = Rumor_serve.Server
module Service = Rumor_serve.Service
module Session = Rumor_serve.Session

(* The service stamps sessions with this clock. *)
let wall = Unix.gettimeofday

type sess = {
  k : int;
  spec : Session.spec;
  due : float;
  mutable sent : float;
  mutable rejected : bool;
  mutable done_at : float;  (** nan until the terminal event arrives *)
  mutable state : string;
  mutable attempts : int;
  mutable result : int list;  (** rounds, informed, population, tx *)
}

let ref_of k = Printf.sprintf "b-%d" k

(* Session [k]'s spec: the workload's scenario with the [k mod 64]-th of
   64 seeds drawn from the run's seed, so the same --seed replays the
   same sessions. A fixed population of seeds keeps the service's
   per-seed topology cache, and with it the process's memory, from
   growing with the number of sessions a run happens to complete. *)
let spec_stream (sc : Scenario.t) ~seed =
  let rng = Rng.create seed in
  let seeds =
    Array.init 64 (fun _ -> Int64.to_int (Rng.bits64 rng) land 0x3FFF_FFFF)
  in
  let k = ref 0 in
  fun () ->
    let i = !k in
    incr k;
    let seed = seeds.(i mod Array.length seeds) in
    ( i,
      {
        Session.default_spec with
        Session.n = sc.n;
        d = sc.d;
        protocol = sc.protocol;
        topology = sc.topology;
        seed;
        alpha = sc.alpha;
        fanout = sc.fanout;
        client_ref = Some (ref_of i);
      } )

let submit_json (s : Session.spec) =
  Json.Obj
    [
      ("op", Json.String "submit");
      ("n", Json.Int s.n);
      ("d", Json.Int s.d);
      ("protocol", Json.String s.protocol);
      ("topology", Json.String s.topology);
      ("seed", Json.Int s.seed);
      ("alpha", Json.Float s.alpha);
      ("fanout", Json.Int s.fanout);
      ("ref", Json.String (Option.value s.client_ref ~default:""));
      ("notify", Json.Bool true);
    ]

(* --- the client end of the socketpair --- *)

type client = {
  fd : Unix.file_descr;
  lines : Wire.Linebuf.t;
  buf : Bytes.t;
  by_ref : (string, sess) Hashtbl.t;
  mutable in_flight : int;
  mutable pongs : int;
  mutable stats : Json.t option;
  mutable protocol_errors : int;
}

let send c line =
  let b = Bytes.unsafe_of_string line in
  ignore (Unix.write c.fd b 0 (Bytes.length b))

let str j k = Option.bind (Json.member k j) Json.to_string_opt

let handle c ~now line =
  match Json.of_string ~max_depth:Wire.max_depth line with
  | Error _ -> c.protocol_errors <- c.protocol_errors + 1
  | Ok j -> (
      let sess = Option.bind (str j "ref") (Hashtbl.find_opt c.by_ref) in
      match (str j "event", str j "op", sess) with
      | Some "session", _, Some s when Float.is_nan s.done_at ->
          s.done_at <- now;
          s.state <- Option.value (str j "state") ~default:"";
          s.attempts <-
            Option.value ~default:0
              (Option.bind (Json.member "attempts" j) Json.to_int);
          s.result <-
            List.filter_map
              (fun k ->
                Option.bind (Json.member "result" j) (fun r ->
                    Option.bind (Json.member k r) Json.to_int))
              [ "rounds"; "informed"; "population"; "transmissions" ];
          c.in_flight <- c.in_flight - 1
      | None, Some "submit", Some s -> (
          match Json.member "ok" j with
          | Some (Json.Bool true) -> ()
          | _ ->
              s.rejected <- true;
              c.in_flight <- c.in_flight - 1)
      | None, Some "ping", _ -> c.pongs <- c.pongs + 1
      | None, Some "stats", _ -> c.stats <- Json.member "stats" j
      | _ -> c.protocol_errors <- c.protocol_errors + 1)

let pump c ~timeout =
  match Unix.select [ c.fd ] [] [] timeout with
  | [], _, _ -> ()
  | _ ->
      let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
      if n = 0 then raise End_of_file;
      let now = wall () in
      List.iter
        (fun l -> if String.trim l <> "" then handle c ~now l)
        (Wire.Linebuf.feed c.lines c.buf 0 n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Pump until [cond] holds or [timeout] seconds pass. *)
let await c ~timeout cond =
  let deadline = wall () +. timeout in
  while (not (cond ())) && wall () < deadline do
    pump c ~timeout:0.005
  done;
  cond ()

type server = { client : client; thread : Thread.t; code : int ref }

(* Start a server thread and time it until it answers a ping. *)
let start cfg =
  let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let code = ref 1 in
  let t0 = Metric.now_s () in
  let thread =
    Thread.create
      (fun () ->
        code :=
          Server.run ~config:cfg ~quiet:true ~signals:false (Server.Fd sfd))
      ()
  in
  let c =
    {
      fd = cfd;
      lines = Wire.Linebuf.create ();
      buf = Bytes.create 65536;
      by_ref = Hashtbl.create 4096;
      in_flight = 0;
      pongs = 0;
      stats = None;
      protocol_errors = 0;
    }
  in
  send c (Wire.to_line (Json.Obj [ ("op", Json.String "ping") ]));
  if not (await c ~timeout:10. (fun () -> c.pongs > 0)) then
    failwith "serve: no answer to ping";
  ({ client = c; thread; code }, Metric.now_s () -. t0)

(* Ask for the final stats, then close our end: EOF drains the server.
   Returns its exit code (0 = clean drain, invariants held). *)
let stop srv =
  let c = srv.client in
  send c (Wire.to_line (Json.Obj [ ("op", Json.String "stats") ]));
  ignore (await c ~timeout:5. (fun () -> c.stats <> None));
  Unix.close c.fd;
  Thread.join srv.thread;
  !(srv.code)

(* Open-loop due times: a Poisson process from [t0], as independent
   users would arrive. A fixed 1/rate grid would lock into phase with
   the server's 10 ms poll and make the latency depend on that phase. *)
let arrivals ~seed ~idx ~rate t0 =
  let rng = Rng.fork (Rng.create seed) idx in
  let next = ref t0 in
  fun () ->
    let due = !next in
    next := due +. Rumor_rng.Dist.exponential rng ~rate;
    due

let run_phase c ~next ~seed ~idx (p : Workload.phase) ~dur =
  let t0 = wall () in
  let endt = t0 +. dur in
  let out = ref [] in
  let submit due =
    let k, spec = next () in
    let s =
      {
        k;
        spec;
        due;
        sent = 0.;
        rejected = false;
        done_at = Float.nan;
        state = "";
        attempts = 0;
        result = [];
      }
    in
    Hashtbl.replace c.by_ref (ref_of k) s;
    out := s :: !out;
    c.in_flight <- c.in_flight + 1;
    s.sent <- wall ();
    send c (Wire.to_line (submit_json spec))
  in
  if p.Workload.closed = 0 then begin
    let arrive = arrivals ~seed ~idx ~rate:p.Workload.rate t0 in
    let due = ref (arrive ()) in
    while wall () < endt do
      while wall () >= !due && !due < endt do
        submit !due;
        due := arrive ()
      done;
      pump c ~timeout:(Float.max 0.0002 (Float.min (!due -. wall ()) 0.01))
    done
  end
  else
    while wall () < endt do
      while c.in_flight < p.Workload.closed do
        submit (wall ())
      done;
      pump c ~timeout:0.01
    done;
  ignore (await c ~timeout:15. (fun () -> c.in_flight = 0));
  (List.rev !out, t0, endt)

let latency s = s.done_at -. s.due

(* Checks on one session as the client saw it. *)
let check_session n s =
  if s.rejected then [ "rejected" ]
  else if Float.is_nan s.done_at then [ "no terminal event (lost or unacked)" ]
  else if s.state <> "completed" then [ "ended " ^ s.state ]
  else
    match s.result with
    | [ rounds; informed; population; tx ] ->
        if informed <> n || population <> n then
          [ Printf.sprintf "coverage %d/%d" informed population ]
        else if rounds < 1 || tx < n - 1 then [ "implausible result" ]
        else []
    | _ -> [ "terminal event without a result" ]

(* Re-run a session's successful attempt through [Session.exec], as the
   worker did, and return its stats and wall time. *)
let exec_direct (spec : Session.spec) ~attempt =
  let t = Session.make ~id:1 ~now:(wall ()) ~notify:false ~conn:(-1) spec in
  t.Session.attempts <- attempt;
  let topology =
    Scenario.make_topology ~rng:(Rng.create spec.seed) ~topology:spec.topology
      ~n:spec.n ~d:spec.d
  in
  let t0 = Metric.now_s () in
  let outcome =
    Session.exec ~topology ~deadline_factor:1e6 ~round_budget_us:1e6
      ~beat:ignore t
  in
  let dt = Metric.now_s () -. t0 in
  match outcome with
  | Session.Finished (st, _) ->
      ( Some
          [
            st.Session.rounds; st.Session.informed; st.Session.population;
            st.Session.transmissions;
          ],
        dt )
  | _ -> (None, dt)

(* Every [every]-th completed session is recomputed directly and must
   match what the service sent back. *)
let verify sessions ~every =
  List.filter_map
    (fun s ->
      if s.k mod every <> 0 || s.result = [] then None
      else
        match exec_direct s.spec ~attempt:s.attempts with
        | Some r, _ when r = s.result -> None
        | _ -> Some (Printf.sprintf "session %d: result differs from Session.exec" s.k))
    sessions

let session_failures n sessions =
  List.concat_map
    (fun s ->
      List.map (fun m -> Printf.sprintf "session %d: %s" s.k m) (check_session n s))
    sessions

let server_failures srv code =
  let c = srv.client in
  let monitor_ok =
    match Option.bind c.stats (Json.member "monitor") with
    | Some m -> Json.member "ok" m = Some (Json.Bool true)
    | None -> false
  in
  List.filter_map
    (fun (ok, m) -> if ok then None else Some m)
    [
      (code = 0, "server did not drain cleanly");
      (monitor_ok, "service monitor reported a violation");
      (c.protocol_errors = 0, "protocol errors on the wire");
    ]

let monitor_count srv name =
  match
    Option.bind
      (Option.bind srv.client.stats (Json.member "monitor"))
      (Json.member name)
  with
  | Some j -> float_of_int (Option.value (Json.to_int j) ~default:0)
  | None -> 0.

let phase_latencies_ms results ~rate =
  List.concat_map
    (fun ((p : Workload.phase), (ss, _, _)) ->
      if p.closed = 0 && p.rate = rate then
        List.filter_map
          (fun s ->
            if Float.is_nan s.done_at then None else Some (1e3 *. latency s))
          ss
      else [])
    results

(* One record per phase: a run has thousands of sessions. *)
let phase_record ((p : Workload.phase), (ss, t0, endt)) =
  let ms =
    List.filter_map
      (fun s -> if Float.is_nan s.done_at then None else Some (1e3 *. latency s))
      ss
  in
  Json.Obj
    [
      ("rate", Json.Float p.rate);
      ("closed", Json.Int p.closed);
      ("seconds", Json.Float (endt -. t0));
      ("sessions", Json.Int (List.length ss));
      ("completed", Json.Int (List.length ms));
      ("p50_ms", Json.Float (Metric.quantile ms 0.5));
      ("p90_ms", Json.Float (Metric.quantile ms 0.9));
      ("p99_ms", Json.Float (Metric.quantile ms 0.99));
      ("max_ms", Json.Float (Metric.quantile ms 1.));
    ]

(* Completions per second in each quarter second of a closed loop. Its
   90th percentile is the rate the service sustains when the host lets
   it: short stalls of the host (which a closed loop amplifies, since
   both cores are busy) fall in the low windows. *)
let window_rates ss ~t0 ~endt =
  let w = 0.25 in
  let counts = Array.make (max 1 (int_of_float ((endt -. t0) /. w))) 0 in
  List.iter
    (fun s ->
      let i = int_of_float ((s.done_at -. t0) /. w) in
      if i >= 0 && i < Array.length counts then counts.(i) <- counts.(i) + 1)
    ss;
  Array.to_list (Array.map (fun c -> float_of_int c /. w) counts)

let untraced (sc : Scenario.t) ~cfg ~phases ~seed ~seconds =
  let cold =
    List.init 20 (fun _ ->
        let srv, dt = start cfg in
        ignore (stop srv);
        dt)
  in
  let srv, dt = start cfg in
  let next = spec_stream sc ~seed in
  let results =
    List.mapi
      (fun idx (p : Workload.phase) ->
        (p, run_phase srv.client ~next ~seed ~idx p ~dur:(p.share *. seconds)))
      phases
  in
  let code = stop srv in
  let sessions = List.concat_map (fun (_, (ss, _, _)) -> ss) results in
  let per_session = session_failures sc.n sessions in
  let failures =
    per_session @ verify sessions ~every:(max 1 (List.length sessions / 16))
    @ server_failures srv code
  in
  let closed =
    List.concat_map
      (fun ((p : Workload.phase), (ss, t0, endt)) ->
        if p.closed > 0 then window_rates ss ~t0 ~endt else [])
      results
  in
  let failed_sessions =
    List.length (List.filter (fun s -> check_session sc.n s <> []) sessions)
  in
  {
    Metric.metrics =
      [
        ("broadcast_ms", Metric.median (phase_latencies_ms results ~rate:100.));
        ("throughput_per_s", Metric.quantile closed 0.9);
        ( "peak_rss_mb",
          float_of_int (Rumor_obs.Metrics.peak_rss_kb ()) /. 1024. );
        ("setup_s", Metric.median (dt :: cold));
      ];
    attempted = List.length sessions;
    failed =
      max failed_sessions (if failures = [] then 0 else 1);
    failures;
    records = List.map phase_record results;
  }

(* --- traced run: the same layers driven one at a time --- *)

(* Drive [Service] directly (no server, no socket) through the open-loop
   phases: submit cost, tier, and submitted-to-finished latency. *)
let drive_service cfg ~next ~seed phases ~dur_of =
  let svc = Service.create cfg in
  let submit_s = ref [] and max_tier = ref 0 and rejected = ref 0 in
  let per_phase =
    List.mapi
      (fun idx (p : Workload.phase) ->
        let t0 = wall () in
        let endt = t0 +. dur_of p in
        let accepted = ref [] in
        let arrive = arrivals ~seed ~idx ~rate:p.rate t0 in
        let due = ref (arrive ()) in
        while wall () < endt do
          if wall () >= !due then begin
            let _, spec = next () in
            let m0 = Metric.now_s () in
            let adm = Service.submit svc spec in
            submit_s := (Metric.now_s () -. m0) :: !submit_s;
            max_tier := max !max_tier (Service.tier svc);
            (match adm with
            | Service.Accepted s -> accepted := s :: !accepted
            | Service.Rejected _ -> incr rejected);
            due := arrive ()
          end
          else Thread.delay (Float.min (!due -. wall ()) 0.01)
        done;
        (p, accepted))
      phases
  in
  let deadline = wall () +. 15. in
  while Service.in_flight svc > 0 && wall () < deadline do
    Thread.delay 0.002
  done;
  let clean = Service.shutdown svc ~timeout_s:5. in
  let latencies rate =
    List.concat_map
      (fun ((p : Workload.phase), acc) ->
        if p.rate = rate then
          List.map
            (fun s ->
              1e3 *. (s.Session.finished_at -. s.Session.submitted_at))
            !acc
        else [])
      per_phase
  in
  let all = List.concat_map (fun (_, acc) -> !acc) per_phase in
  let incomplete =
    List.length
      (List.filter (fun s -> s.Session.state <> Session.Done Session.Completed) all)
  in
  let failures =
    List.filter_map
      (fun (ok, m) -> if ok then None else Some ("direct service: " ^ m))
      [
        (clean, "shutdown was not clean");
        (!rejected = 0, Printf.sprintf "%d submissions rejected" !rejected);
        (incomplete = 0, Printf.sprintf "%d sessions not completed" incomplete);
      ]
  in
  ( [
      ("service.submit_us", 1e6 *. Metric.median !submit_s);
      ("service.latency_ms.r100", Metric.median (latencies 100.));
      ("service.latency_ms.r200", Metric.median (latencies 200.));
      ("service.max_tier", float_of_int !max_tier);
    ],
    List.length all + !rejected,
    failures )

(* Mean wall time of [f] over the specs, repeated for [budget] seconds. *)
let mean_us ~budget xs f =
  let calls = ref 0 and t0 = Metric.now_s () in
  while !calls = 0 || Metric.now_s () -. t0 < budget do
    List.iter f xs;
    calls := !calls + List.length xs
  done;
  (Metric.now_s () -. t0) *. 1e6 /. float_of_int !calls

let traced (sc : Scenario.t) ~cfg ~phases ~seed ~seconds =
  let open_phases = List.filter (fun (p : Workload.phase) -> p.closed = 0) phases in
  let open_share =
    List.fold_left (fun a (p : Workload.phase) -> a +. p.share) 0. open_phases
  in
  let dur_of share (p : Workload.phase) = share *. seconds *. p.share /. open_share in
  let next = spec_stream sc ~seed in
  (* 1. the socket path, open loops only *)
  let srv, _ = start cfg in
  let results =
    List.mapi
      (fun idx (p : Workload.phase) ->
        (p, run_phase srv.client ~next ~seed ~idx p ~dur:(dur_of 0.45 p)))
      open_phases
  in
  let code = stop srv in
  let sessions = List.concat_map (fun (_, (ss, _, _)) -> ss) results in
  let client_p50_r100 = Metric.median (phase_latencies_ms results ~rate:100.) in
  let client_r200 = phase_latencies_ms results ~rate:200. in
  let lag =
    List.filter_map
      (fun s -> if Float.is_nan s.done_at then None else Some (1e3 *. (s.sent -. s.due)))
      sessions
  in
  (* 2. the service alone *)
  let service_metrics, service_attempted, service_failures =
    drive_service cfg ~next ~seed open_phases ~dur_of:(dur_of 0.3)
  in
  (* 3. the session and kernel layers on the same specs, then the wire *)
  let l = Kernel_bench.layers () in
  let session_sc = { sc with Scenario.source = "first"; stop = "true" } in
  let exec_ms = ref [] and specs = ref [] in
  let pairs =
    Metric.timeboxed ~seconds:(0.15 *. seconds) ~min:1 (fun i ->
        let _, spec = next () in
        specs := spec :: !specs;
        let stats, dt = exec_direct spec ~attempt:1 in
        exec_ms := (1e3 *. dt) :: !exec_ms;
        (* Session.exec's streams: the topology from [create seed], the
           first attempt's broadcast from [fork (create seed) 1]. *)
        let s = Kernel_bench.setup session_sc (Rng.create spec.seed) in
        let r, r', _ =
          Kernel_bench.traced_pair l ~traced_first:(i mod 2 = 1) session_sc s
            (Rng.fork (Rng.create spec.seed) 1)
        in
        let direct =
          Some
            [ r.rounds; r.informed; r.population; Rumor_sim.Engine.transmissions r ]
        in
        if direct <> stats then [ "Engine.run differs from Session.exec" ]
        else if not (Kernel_bench.same_result r r') then
          [ "traced run differs from untraced" ]
        else [])
  in
  let lines = List.map (fun s -> Wire.to_line (submit_json s)) !specs in
  let jsons = List.map submit_json !specs in
  let s = Kernel_bench.setup session_sc (Rng.create seed) in
  let kernel =
    Kernel_bench.layer_metrics l
      ~neighbor_ns:(Kernel_bench.neighbor_ns s.topology ~fanout:1)
      ~select_ns:(Kernel_bench.select_ns s.protocol s.topology)
  in
  let exec_p50 = Metric.median !exec_ms in
  let service_p50 rate =
    List.assoc ("service.latency_ms.r" ^ string_of_int rate) service_metrics
  in
  let failures =
    session_failures sc.n sessions @ server_failures srv code @ service_failures
    @ List.concat pairs
  in
  {
    Metric.metrics =
      kernel @ service_metrics
      @ [
          ("wire.parse_us", mean_us ~budget:(0.02 *. seconds) lines (fun l -> ignore (Wire.parse_request l)));
          ("wire.encode_us", mean_us ~budget:(0.02 *. seconds) jsons (fun j -> ignore (Wire.to_line j)));
          ("session.exec_ms", exec_p50);
          ("service.queue_wait_ms.r200", service_p50 200 -. exec_p50);
          ("server.io_ms.r100", client_p50_r100 -. service_p50 100);
          ("service.rejected", monitor_count srv "rejected");
          ("service.retries", monitor_count srv "retries");
          ("load.gen_lag_ms", Metric.quantile lag 0.99);
          ("serve.p50_ms.r200", Metric.median client_r200);
          ("serve.p99_ms.r200", Metric.quantile client_r200 0.99);
        ];
    attempted = List.length sessions + service_attempted + (2 * List.length pairs);
    failed =
      List.length (List.filter (fun s -> check_session sc.n s <> []) sessions)
      + List.length (List.filter (( <> ) []) pairs)
      + (if service_failures = [] && server_failures srv code = [] then 0 else 1);
    failures;
    records = List.map phase_record results;
  }

(* The default admission queue (64) fills within a third of a second of
   a host stall at 200/s and then rejects; a deeper queue lets such a
   stall show as latency instead of failed sessions. *)
let run (sc : Scenario.t) ~workers ~phases ~seed ~seconds ~traced:t =
  let cfg = Service.config ~workers ~queue_capacity:1024 () in
  if t then traced sc ~cfg ~phases ~seed ~seconds
  else untraced sc ~cfg ~phases ~seed ~seconds
