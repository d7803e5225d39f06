(** SplitMix64 pseudo-random number generator (Steele, Lea & Flood 2014).

    A tiny, fast, well-distributed 64-bit generator with a 64-bit state.
    Its main role here is to seed {!Xoshiro} from a single integer seed,
    but it is a usable generator in its own right (e.g. for cheap,
    independent per-node streams). *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator initialised with [seed].
    Distinct seeds give independent-looking streams. *)

val copy : t -> t
(** [copy t] is a generator with the same state as [t]; the two evolve
    independently afterwards. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)
