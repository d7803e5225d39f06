module Rng = Rumor_rng.Rng
module Engine = Rumor_sim.Engine
module Fault = Rumor_sim.Fault
module Topology = Rumor_sim.Topology
module Scenario = Rumor_cli.Scenario

(* One broadcast session: a client-submitted request to run one rumor
   broadcast (protocol x topology x faults) to completion. The service
   multiplexes many of these over a fixed pool of worker domains, so a
   session carries everything an attempt needs plus the bookkeeping the
   supervisor and monitor reason about.

   Locking contract: every mutable field is guarded by the owning
   service's mutex, except [cancel] (an [Atomic] polled from inside the
   engine loop on a worker domain) and [attempt_token] (written under
   the mutex, read by workers to detect that their attempt went stale
   after a failover — see [Supervisor]). *)

type spec = {
  n : int;
  d : int;
  protocol : string;
  topology : string;
  seed : int;
  alpha : float;
  fanout : int;
  link_loss : float;
  burst_loss : float;
  burst_len : float;
  crash_worker : bool;  (** fault injection: kill the worker domain mid-run *)
  wedge_ms : float;  (** fault injection: stall without heartbeating *)
  deadline_ms : float option;  (** per-attempt wall budget; None = derived *)
  collect_trace : bool;
  client_ref : string option;  (** opaque client correlation tag *)
}

let default_spec =
  {
    n = 4096;
    d = 8;
    protocol = "push-pull";
    topology = "implicit-regular";
    seed = 1;
    alpha = 2.0;
    fanout = 4;
    link_loss = 0.;
    burst_loss = 0.;
    burst_len = 4.;
    crash_worker = false;
    wedge_ms = 0.;
    deadline_ms = None;
    collect_trace = false;
    client_ref = None;
  }

(* Admission-side validation: the wire is hostile, so every numeric
   field is range-checked before a session object is even built. The
   [n] ceiling keeps a single session's memory bounded (the service
   caches topologies, and materialised graphs at 2^20 are ~tens of MB);
   protocol/topology names are whitelisted rather than discovered by
   letting the factories raise, and a materialised (n, d) its generator
   cannot build is refused here rather than failing every attempt. *)

let protocols = [ "bef"; "bef-seq"; "push"; "pull"; "push-pull"; "quasirandom" ]

let topologies =
  [
    "regular"; "hypercube"; "torus"; "complete"; "gnp"; "product-k5";
    "implicit-regular"; "implicit-hypercube"; "implicit-chords";
  ]

let max_n = 1 lsl 20

(* Implicit views never materialise a graph, and under the packed
   kernel state a run costs bytes per node rather than words — so their
   admission ceiling tracks the simulation frontier (bef completes at
   n = 10^8), not the topology cache. Materialised specs keep the 2^20
   cap above. *)
let max_implicit_n = 100_000_000

let validate_spec s =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let n_cap =
    if Scenario.is_implicit s.topology then max_implicit_n else max_n
  in
  if s.n < 2 || s.n > n_cap then err "n must be in [2, %d]" n_cap
  else if s.d < 1 || s.d > 64 then err "d must be in [1, 64]"
  else if not (List.mem s.protocol protocols) then
    err "unknown protocol %S" s.protocol
  else if not (List.mem s.topology topologies) then
    err "unknown topology %S" s.topology
  else if s.topology = "implicit-regular" && s.n land 1 = 1 then
    err "implicit-regular needs even n"
  else if not (Float.is_finite s.alpha) || s.alpha <= 0. || s.alpha > 64. then
    err "alpha must be in (0, 64]"
  else if s.fanout < 1 || s.fanout > 64 then err "fanout must be in [1, 64]"
  else if not (Float.is_finite s.link_loss) || s.link_loss < 0. || s.link_loss > 0.9
  then err "link_loss must be in [0, 0.9]"
  else if
    not (Float.is_finite s.burst_loss) || s.burst_loss < 0. || s.burst_loss > 0.5
  then err "burst_loss must be in [0, 0.5]"
  else if not (Float.is_finite s.burst_len) || s.burst_len < 1. || s.burst_len > 64.
  then err "burst_len must be in [1, 64]"
  else if not (Float.is_finite s.wedge_ms) || s.wedge_ms < 0. || s.wedge_ms > 10_000.
  then err "wedge_ms must be in [0, 10000]"
  else
    match s.deadline_ms with
    | Some ms when (not (Float.is_finite ms)) || ms < 1. || ms > 600_000. ->
        err "deadline_ms must be in [1, 600000]"
    | _ ->
        Result.map
          (fun () -> s)
          (Scenario.check_topology ~topology:s.topology ~n:s.n ~d:s.d)

type outcome =
  | Completed
  | Failed of string
  | Shed
  | Cancelled

type state =
  | Queued
  | Running
  | Backoff  (** waiting out a retry gap; re-queued by the ticker *)
  | Done of outcome

type run_stats = {
  rounds : int;
  informed : int;
  population : int;
  transmissions : int;
}

type t = {
  id : int;
  spec : spec;
  submitted_at : float;
  mutable state : state;
  mutable protocol : string;  (** effective protocol (degradation may downgrade) *)
  mutable degraded : bool;
  mutable trace_enabled : bool;
  mutable attempts : int;  (** attempts started *)
  mutable retries : int;  (** deadline/incomplete re-runs *)
  mutable failovers : int;  (** re-queues after a worker crash/wedge *)
  mutable not_before : float;  (** earliest re-queue time while in [Backoff] *)
  mutable finished_at : float;
  mutable last_error : string option;
  mutable stats : run_stats option;
  attempt_token : int Atomic.t;
      (** bumped when an attempt starts or the session is failed over;
          a worker's completion is discarded unless its token is still
          current, so a deposed worker limping to the finish line cannot
          double-terminate a session that was already re-assigned *)
  cancel : bool Atomic.t;
  notify : bool;  (** push a completion event to the submitting client *)
  conn : int;  (** owning connection id; -1 for in-process use *)
}

let make ~id ~now ~notify ~conn spec =
  {
    id;
    spec;
    submitted_at = now;
    state = Queued;
    protocol = spec.protocol;
    degraded = false;
    trace_enabled = spec.collect_trace;
    attempts = 0;
    retries = 0;
    failovers = 0;
    not_before = 0.;
    finished_at = 0.;
    last_error = None;
    stats = None;
    attempt_token = Atomic.make 0;
    cancel = Atomic.make false;
    notify;
    conn;
  }

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Backoff -> "backoff"
  | Done Completed -> "completed"
  | Done (Failed _) -> "failed"
  | Done Shed -> "shed"
  | Done Cancelled -> "cancelled"

let is_terminal t = match t.state with Done _ -> true | _ -> false

let latency_s t =
  if is_terminal t then t.finished_at -. t.submitted_at else 0.

(* --- deadline derivation ---

   The paper's algorithms finish in O(log n) rounds w.h.p., so a
   session's wall budget is [factor * ceil_log2 n] rounds at a declared
   per-round wall budget. This turns the theoretical round bound into
   an operational deadline: a run that blows it is not "slow", it is
   outside the regime the bound promises, and gets cancelled and
   retried on a fresh stream. *)

let deadline_s ~deadline_factor ~round_budget_us spec =
  match spec.deadline_ms with
  | Some ms -> ms /. 1e3
  | None ->
      deadline_factor
      *. float_of_int (Rumor_core.Params.ceil_log2 (max 2 spec.n))
      *. round_budget_us *. 1e-6

(* --- attempt execution --- *)

type attempt_outcome =
  | Finished of run_stats * bool  (** stats, success (all live informed) *)
  | Deadline_expired
  | Cancelled_by_client

exception Crash_injected
(** Simulated worker crash: escapes the worker loop so the whole domain
    dies, exercising the supervisor's failover + restart path. *)

exception Stop of attempt_outcome

let fault_of spec =
  if spec.link_loss = 0. && spec.burst_loss = 0. then Fault.none
  else
    Fault.plan ~link_loss:spec.link_loss
      ?burst:
        (if spec.burst_loss > 0. then
           Some (Fault.burst ~loss:spec.burst_loss ~burst_len:spec.burst_len)
         else None)
      ()

(* Run one attempt on [topology] (owned and cached by the service;
   read-only during the run, so safe to share across worker domains).
   [beat] is the supervisor heartbeat — called every round so the
   watchdog can tell a slow attempt from a wedged worker. Fault
   injection (crash, wedge) fires once, early in the first attempt, so
   the retry path is exercised without livelocking the session. *)
let exec ~topology ~deadline_factor ~round_budget_us ~beat t =
  let spec = t.spec in
  let attempt = t.attempts in
  let rng = Rng.fork (Rng.create spec.seed) attempt in
  let protocol =
    Scenario.make_protocol ~protocol:t.protocol ~n:spec.n ~d:spec.d
      ~alpha:spec.alpha ~fanout:spec.fanout ()
  in
  let deadline =
    Unix.gettimeofday () +. deadline_s ~deadline_factor ~round_budget_us spec
  in
  let on_round_end round =
    beat ();
    if attempt = 1 && round = 2 then begin
      if spec.wedge_ms > 0. then Unix.sleepf (spec.wedge_ms /. 1e3);
      if spec.crash_worker then raise Crash_injected
    end;
    if Atomic.get t.cancel then raise (Stop Cancelled_by_client);
    if Unix.gettimeofday () > deadline then raise (Stop Deadline_expired);
    (* A heartbeat: no node joins or leaves. *)
    []
  in
  beat ();
  match
    Engine.run ~fault:(fault_of spec) ~collect_trace:t.trace_enabled
      ~stop_when_complete:true ~on_round_end ~rng ~topology ~protocol
      ~sources:[ 0 ] ()
  with
  | r ->
      let stats =
        {
          rounds = r.Engine.rounds;
          informed = r.Engine.informed;
          population = r.Engine.population;
          transmissions = Engine.transmissions r;
        }
      in
      Finished (stats, Engine.success r)
  | exception Stop o -> o
