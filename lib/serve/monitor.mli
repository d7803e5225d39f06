(** Service-level invariant monitor.

    The serving analogue of {!Rumor_sim.Invariant}: atomically-counted
    session/worker telemetry plus recorded violations of the service
    invariants —

    - {b no session lost}: every accepted session terminates in exactly
      one of completed/failed/shed/cancelled ({!reconcile},
      {!note_terminal}'s double-terminal check);
    - {b bounded queue}: depth never exceeds the admission bound plus
      the bounded failover/retry excess ({!observe_queue});
    - {b restart intensity}: worker restarts stay under the circuit
      breaker's cap ({!note_restart}).

    Counters may be bumped from any domain; violations are capped (like
    the simulation monitor) so a broken invariant cannot exhaust
    memory. *)

type counter =
  [ `Submitted
  | `Accepted
  | `Rejected
  | `Completed
  | `Failed
  | `Shed
  | `Cancelled
  | `Retries
  | `Failovers
  | `Restarts
  | `Deposed
  | `Degraded ]

type violation = { check : string; detail : string }

type t

val create : ?limit:int -> queue_bound:int -> restart_cap:int -> unit -> t
(** [limit] (default 64) caps stored violations; the count keeps
    incrementing past it. @raise Invalid_argument if [limit < 1]. *)

val incr : t -> counter -> unit
val count : t -> counter -> int

val observe_queue : t -> int -> unit
(** Check a sampled queue depth against the bound. *)

val note_restart : t -> unit
(** Count a worker restart; records a violation past the cap. *)

val note_terminal : t -> already_terminal:bool -> Session.outcome -> unit
(** Count a terminal transition; [already_terminal] records a
    double-terminal violation instead. *)

val terminal_total : t -> int

val reconcile : t -> in_flight:int -> bool
(** Conservation check at a quiet point: [accepted = terminal_total +
    in_flight]. Records a violation and returns [false] on mismatch. *)

val ok : t -> bool

val to_json : t -> Rumor_obs.Json.t
(** All counters plus [violations], [violation_list], [ok]. *)
