(** A broadcast session: one client request multiplexed onto the worker
    pool.

    Sessions move through [Queued -> Running -> (Backoff -> Queued ->
    Running)* -> Done _]; every accepted session reaches exactly one
    terminal outcome ([Completed | Failed | Shed | Cancelled]) — the
    no-session-lost invariant the {!Monitor} enforces. Deadlines derive
    from the paper's round bound: [factor * ceil_log2 n] rounds at a
    declared per-round wall budget, so an attempt that blows its budget
    is cancelled and retried (randomized exponential backoff, shared
    policy with [Rumor_core.Repair]) rather than allowed to squat on a
    worker.

    Mutable fields are guarded by the owning service's mutex; [cancel]
    and [attempt_token] are atomics read from worker domains. *)

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
  deadline_ms : float option;  (** per-attempt wall budget; [None] = derived *)
  collect_trace : bool;
  client_ref : string option;
}

val default_spec : spec
(** [n 4096, d 8, push-pull on implicit-regular, seed 1, no faults]. *)

val protocols : string list

val max_n : int
(** Admission ceiling on [n] for materialised topologies ([2^20]) —
    bounds one session's graph-cache memory. *)

val max_implicit_n : int
(** Admission ceiling on [n] for [implicit-*] topologies ([10^8]): no
    graph is built and packed per-node state keeps a run at bytes per
    node, so the cap is the simulation frontier, not the cache. *)

val validate_spec : spec -> (spec, string) result
(** Range-check every field (the wire is hostile input), and refuse a
    materialised [(n, d)] its generator cannot build
    ({!Rumor_cli.Scenario.check_topology}). *)

type outcome = Completed | Failed of string | Shed | Cancelled

type state = Queued | Running | Backoff | Done of outcome

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
  mutable protocol : string;
  mutable degraded : bool;
  mutable trace_enabled : bool;
  mutable attempts : int;
  mutable retries : int;
  mutable failovers : int;
  mutable not_before : float;
  mutable finished_at : float;
  mutable last_error : string option;
  mutable stats : run_stats option;
  attempt_token : int Atomic.t;
  cancel : bool Atomic.t;
  notify : bool;
  conn : int;
}

val make : id:int -> now:float -> notify:bool -> conn:int -> spec -> t

val state_name : state -> string
(** [queued|running|backoff|completed|failed|shed|cancelled]. *)

val is_terminal : t -> bool

val latency_s : t -> float
(** Submission-to-terminal wall time; 0 until terminal. *)

val deadline_s :
  deadline_factor:float -> round_budget_us:float -> spec -> float
(** The per-attempt wall budget in seconds: the spec's explicit
    [deadline_ms] if given, else [factor * ceil_log2 n *
    round_budget_us]. *)

type attempt_outcome =
  | Finished of run_stats * bool  (** stats, success (all live informed) *)
  | Deadline_expired
  | Cancelled_by_client

exception Crash_injected
(** Simulated worker crash (from [crash_worker] specs): deliberately
    escapes the worker loop so the domain dies and the supervisor's
    failover + restart path runs. *)

val exec :
  topology:Rumor_sim.Topology.t ->
  deadline_factor:float ->
  round_budget_us:float ->
  beat:(unit -> unit) ->
  t ->
  attempt_outcome
(** Run one attempt. [topology] must be read-only for the duration (the
    service's cache guarantees it); [beat] is called once per round so
    the watchdog can distinguish slow from wedged. Attempt [k] uses
    stream [fork spec.seed k], so a retried session is a fresh
    independent run, reproducible from the spec alone.
    @raise Crash_injected when the spec asks for it (first attempt). *)
