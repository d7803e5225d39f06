(** Transient network partitions.

    The paper's failure story covers lost messages; real P2P systems
    also suffer {e partitions} — the overlay splits into components
    that cannot talk until connectivity heals. This module cuts an
    overlay along a vertex bipartition (removing all cross edges,
    remembering them) and can later heal it (re-adding exactly the
    removed edges). Combined with the engine's [on_round_end] hook
    (which reports no membership change: cutting and healing touch
    edges only) it models a partition window during a broadcast; for
    partition windows driven by the fault plan itself (no overlay
    mutation), see [Rumor_sim.Fault.partition].

    An overlay carries {e at most one} unhealed cut at a time: stacking
    cuts would make healing order-dependent (a second split could
    remove edges the first is about to re-add), silently corrupting the
    degree sequence. [split_*] on an overlay whose previous cut has not
    been healed raises [Invalid_argument] — before touching the
    overlay. Cut-then-heal restores the exact degree sequence, except
    for edges whose endpoints died while the cut was open (those stay
    removed; {!heal} skips them). *)

type t
(** The set of removed cross edges, owned until {!heal}. *)

val split_random :
  Overlay.t -> rng:Rumor_rng.Rng.t -> fraction:float -> t
(** [split_random o ~fraction] assigns each live node to the minority
    side with probability [fraction] and removes every edge crossing
    the cut.
    @raise Invalid_argument if [fraction] is outside [\[0, 1\]], or if
    the overlay has an outstanding unhealed cut. *)

val split_by : Overlay.t -> side:(int -> bool) -> t
(** Partition along an explicit predicate (minority = [side v]).
    @raise Invalid_argument if the overlay has an outstanding unhealed
    cut. An empty cut (no crossing edges) needs no healing and never
    blocks a later split. *)

val cut_size : t -> int
(** Number of edges currently removed; 0 once the cut is healed. *)

val heal : Overlay.t -> t -> unit
(** Re-add all removed edges (skipping endpoints that died in the
    meantime). Idempotent: healing twice adds nothing twice. Healing
    releases the overlay's cut, allowing a new [split_*]. *)
