(** Worker-domain pool: restart-on-crash, wedge detection, failover.

    Each worker is an OCaml domain looping [take -> handle] over the
    shared {!Mailbox}. Supervision handles the two ways a worker can
    die:

    - {b crash} — the domain body unwinds (e.g. the injected
      {!Session.Crash_injected}); the watchdog {!scan} reaps it, fails
      its in-flight session over to the pool and respawns the slot;
    - {b wedge} — the domain stops making progress without exiting.
      There is no [Domain.kill], so a wedged worker is {e deposed}: its
      session is failed over, a replacement takes its slot, and the
      zombie's eventual output is discarded via the session's stale
      attempt token. Detection is by heartbeat staleness — workers beat
      once per simulated round, and only a busy worker is ever judged
      (an idle worker blocked on the mailbox cannot wedge).

    Respawns pass through a restart-intensity circuit breaker: more
    than [max_restarts] inside [restart_window_s] opens the breaker and
    the slot is retired instead (a crash-looping service should degrade
    honestly, not flap forever).

    {!scan} must be called from exactly one thread (the service
    ticker); it never blocks on a domain that has not exited. *)

type config = {
  workers : int;
  heartbeat_timeout_s : float;
  max_restarts : int;
  restart_window_s : float;
}

val config :
  ?workers:int ->
  ?heartbeat_timeout_s:float ->
  ?max_restarts:int ->
  ?restart_window_s:float ->
  unit ->
  config
(** Validated config; defaults [4] workers, [0.25]s heartbeat timeout,
    [8] restarts per [60]s window. @raise Invalid_argument on
    non-positive values. *)

type t

val create :
  config:config ->
  mailbox:Session.t Mailbox.t ->
  handle:(beat:(unit -> unit) -> Session.t -> unit) ->
  on_failover:(Session.t -> unit) ->
  on_restart:(unit -> unit) ->
  on_deposed:(unit -> unit) ->
  unit ->
  t
(** Spawn the initial pool. [handle] runs one session attempt and must
    call [beat] regularly (once per round); it may let
    {!Session.Crash_injected} escape — that is the crash-injection
    path. [on_failover] receives the in-flight session of a dead or
    deposed worker (called with the pool mutex held; must not call back
    into the supervisor). *)

val scan : t -> now:float -> unit
(** One watchdog pass: reap exited workers (failover + respawn), depose
    stale busy workers, reap exited zombies. Single-threaded. *)

val live_workers : t -> int
val busy_count : t -> int

val breaker_open : t -> bool
val restarts_in_window : t -> now:float -> int

val begin_drain : t -> unit
(** Stop treating worker exits as crashes. Must be called {e before}
    closing the mailbox, else clean drain exits would be "crashes"
    respawned into a closed mailbox. *)

val drain : t -> timeout_s:float -> bool
(** Wait until every worker and zombie has exited, joining them;
    [false] if the timeout expires first — genuinely wedged domains are
    left un-joined rather than hanging shutdown. Implies
    {!begin_drain}; the mailbox must already be closed. Returns as soon
    as the last worker exits; the deadline is checked on each {!scan},
    so the ticker must still be running. *)
