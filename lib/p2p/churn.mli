(** Degree-preserving join and leave — the dynamics that keep a P2P
    overlay (approximately) a random [d]-regular graph while peers come
    and go, in the spirit of the overlay-maintenance protocols the
    paper cites ([5], [16], [27], [29], [32]).

    Both operations preserve every remaining node's degree exactly, so
    a [d]-regular overlay stays [d]-regular:

    - {!join} splits [d/2] random edges [(u, w)] and reconnects their
      endpoints through the newcomer ([u–new], [new–w]);
    - {!leave} removes a node and re-pairs the [d] half-edges it leaves
      behind into [d/2] new edges. *)

val join : Overlay.t -> rng:Rumor_rng.Rng.t -> d:int -> int
(** [join t ~rng ~d] activates a fresh node, wires it to degree [d] by
    edge splitting, and returns its id. Requires [d] even, at least
    [d/2] edges present, and spare capacity.
    @raise Invalid_argument if [d] is odd or not positive.
    @raise Failure if the overlay has too few edges or no capacity. *)

val leave : Overlay.t -> rng:Rumor_rng.Rng.t -> node:int -> unit
(** [leave t ~rng ~node] departs [node], re-pairing its neighbours'
    freed half-edges uniformly at random (parallel edges or self-loops
    may appear, exactly as in the configuration model; they are rare
    and are washed out by {!Switcher} steps).
    @raise Invalid_argument if [node] is not alive. *)

val leave_random : Overlay.t -> rng:Rumor_rng.Rng.t -> int
(** Depart a uniformly random live node and return its id.
    @raise Failure on an empty overlay. *)

type event = {
  joined : int option;  (** id of the node that joined this tick, if any *)
  left : int option;  (** id of the node that left this tick, if any *)
}

val session :
  Overlay.t ->
  rng:Rumor_rng.Rng.t ->
  d:int ->
  join_prob:float ->
  leave_prob:float ->
  unit ->
  event
(** One churn tick: with probability [join_prob] a node joins (skipped
    when the overlay is at capacity or has fewer than [d/2] edges to
    split — a saturated tick is dropped rather than raising mid-run),
    then with probability [leave_prob] a random node leaves (skipped
    when the overlay would drop below [d + 2] nodes, keeping the
    regular structure meaningful). Returns which actions actually
    fired; the joined id is what a healing harness feeds back to the
    engine's [reset] hook so the newcomer starts uninformed even if its
    id was recycled. Designed to be called from the engine's
    [on_round_end]. *)
