(** Runtime kernel-invariant monitor.

    [kernel.mli] states several informal contracts — the incremental
    census equals a full recount, the informed set only grows absent
    node faults, every delivery is accounted to a channel. This module
    makes them executable: pass [?monitor:(Invariant.create ())] to a
    kernel driver and the kernel re-derives each quantity independently
    at every round boundary, recording a {!violation} whenever the
    cheap incremental answer disagrees with the recomputed one.

    The monitor is pure observation: it draws no randomness, never
    changes control flow, and when absent costs nothing — the kernel
    hot path stays allocation-free and every golden trajectory is
    bit-identical with or without it. It exists for the chaos harness
    ([rumor chaos]) and for tests; production sweeps leave it off.

    Checks performed by the kernel when a monitor is installed, keyed
    by the [check] field of the violation:

    - ["census"] — the incremental live count and each table's informed
      count (and, under the incremental census, its down-informed
      count) equal a full O(capacity) recount of the bitsets;
    - ["monotone"] — a table's informed count never decreases when the
      plan has no node faults, no churn hook and no state reset (only
      crashes, churn departures and amnesia may shrink the rumor);
    - ["conserve"] — newly informed nodes never exceed surviving
      deliveries; push and pull deliveries never exceed the number of
      open channels per table; informed never exceeds live;
    - ["drain"] — per-table pending/duplicate staging buffers are empty
      after the round's deliveries are applied;
    - ["budget"] — repair epochs never exceed [max_epochs] and no epoch
      outlives its protocol's horizon. *)

type violation = { check : string; round : int; detail : string }

type t

val create : ?limit:int -> unit -> t
(** Fresh monitor. At most [limit] (default 32) violations are kept;
    further ones are still counted by {!count} but not stored.
    @raise Invalid_argument if [limit < 1]. *)

val record : t -> check:string -> round:int -> detail:string -> unit
(** Record one violation. Called by the kernel; callers only read. *)

val tick : t -> unit
(** Count one checked round boundary (see {!rounds_checked}). *)

val count : t -> int
(** Total violations recorded, including ones dropped past [limit]. *)

val rounds_checked : t -> int
(** Round boundaries at which the kernel ran the checks. *)

val violations : t -> violation list
(** Stored violations, oldest first. *)

val pp_violation : Format.formatter -> violation -> unit
