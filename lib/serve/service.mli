(** The broadcast service: many sessions multiplexed over a supervised
    worker-domain pool.

    Submission flows through explicit backpressure: a bounded admission
    queue ({!Mailbox}) whose occupancy drives graceful-degradation
    tiers — at {!type-config.shed_trace_at} new sessions lose trace
    collection, at {!type-config.shed_degrade_at} incoming [bef]
    sessions are downgraded to plain push&pull (several times cheaper
    per round, marked [degraded]), and a full queue rejects immediately
    with a [retry_after_ms] hint derived from the smoothed attempt time
    and queue depth. Admitted sessions get per-attempt wall deadlines
    from the paper's round bound ([deadline_factor * ceil_log2 n]
    rounds at [round_budget_us] each); an attempt that blows its
    deadline (or ends incomplete under loss) is retried up to
    [retry_budget] times with randomized exponential backoff — the same
    {!Rumor_core.Repair.backoff} policy the repair epochs use, in
    milliseconds.

    Worker crashes and wedges are handled by the {!Supervisor}
    (failover + restart under a circuit breaker); a {!Monitor} enforces
    the service invariants, chiefly {b no session lost}: every accepted
    session reaches exactly one terminal state, even across failovers,
    cancellation and shutdown.

    All entry points are safe from any thread or domain. [on_terminal]
    fires exactly once per session, with no internal lock held. *)

type config = {
  workers : int;
  queue_capacity : int;
  retry_budget : int;
  retry_backoff : Rumor_core.Repair.backoff;  (** in milliseconds *)
  deadline_factor : float;
  round_budget_us : float;
  shed_trace_at : float;
  shed_degrade_at : float;
  heartbeat_timeout_s : float;
  max_restarts : int;
  restart_window_s : float;
  tick_s : float;
}

val config :
  ?workers:int ->
  ?queue_capacity:int ->
  ?retry_budget:int ->
  ?retry_backoff:Rumor_core.Repair.backoff ->
  ?deadline_factor:float ->
  ?round_budget_us:float ->
  ?shed_trace_at:float ->
  ?shed_degrade_at:float ->
  ?heartbeat_timeout_s:float ->
  ?max_restarts:int ->
  ?restart_window_s:float ->
  ?tick_s:float ->
  unit ->
  config
(** Validated config. Defaults: 4 workers, queue 64, 3 retries with
    25–400 ms backoff, deadline [6 * ceil_log2 n] rounds at 2 ms each,
    shedding at 50%/75% occupancy, 250 ms heartbeat timeout, 8 restarts
    per 60 s window, 5 ms tick. *)

type t

val create : ?on_terminal:(Session.t -> unit) -> config -> t
(** Spawn the worker pool and the ticker thread. *)

type admission =
  | Accepted of Session.t
  | Rejected of { reason : string; retry_after_ms : float }

val submit : ?notify:bool -> ?conn:int -> t -> Session.spec -> admission
(** Validate, apply the current shedding tier, and enqueue.
    [retry_after_ms] is 0 for permanent rejections (invalid spec,
    draining) and a backoff hint for overload. *)

val find : t -> int -> Session.t option
val cancel : t -> int -> bool
(** [true] if the session existed and was not already terminal. Queued
    and backing-off sessions terminate immediately; running attempts
    are cancelled cooperatively at the next round boundary. *)

val tier : t -> int
(** Current shedding tier: 0 normal, 1 no traces, 2 degrade bef,
    3 reject. *)

val queue_length : t -> int
val in_flight : t -> int
(** Accepted, not yet terminal. *)

val monitor : t -> Monitor.t
val latency : t -> Rumor_obs.Latency.t
(** Histogram of submission-to-terminal latency. *)

val stats_json : t -> Rumor_obs.Json.t
(** Monitor counters + queue/tier/worker/latency snapshot. *)

val drain : t -> unit
(** Stop admitting; in-flight sessions keep running. *)

val shutdown : t -> timeout_s:float -> bool
(** {!drain}, wait for in-flight work, cooperatively cancel stragglers,
    force-fail what remains (no session left non-terminal), close the
    queue, join workers and ticker, and reconcile the monitor's
    conservation invariant. [true] iff work settled in time, every
    domain was joined and the monitor saw no violation. *)
