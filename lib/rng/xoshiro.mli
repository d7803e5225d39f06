(** Xoshiro256** pseudo-random number generator (Blackman & Vigna 2018).

    The workhorse generator of the library: 256 bits of state, period
    [2^256 - 1], passes BigCrush, and is very fast. All simulation code
    goes through {!Rng}, which wraps this module.

    The state is four [int64] words in a 32-byte [Bytes.t], read and
    written with the raw 64-bit load/store primitives. ocamlopt keeps
    an [int64] unboxed while it stays inside one function, so every
    accessor inlines the whole generator step and returns a tagged
    [int]: {!bits62}, {!bits53}, {!below} and {!distinct_into}
    never allocate. Only {!next} returns a boxed [int64] (three minor words
    per call on non-flambda builds). Streams are bit-identical to the
    reference generator. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] expands [seed] through SplitMix64 into a full 256-bit
    state, as recommended by the xoshiro authors. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] builds a generator from an explicit state.
    The state must not be all zero.
    @raise Invalid_argument on the all-zero state. *)

val copy : t -> t
(** [copy t] duplicates the state; the copies evolve independently. *)

val next : t -> int64
(** [next t] advances the state and returns 64 pseudo-random bits. The
    returned [int64] is boxed; hot paths should prefer {!bits62} or
    {!bits53}. *)

val bits62 : t -> int
(** [bits62 t] advances the state once and returns the top 62 bits of
    the same output [next] would have produced
    ([Int64.to_int (Int64.shift_right_logical (next t) 2)]), without
    allocating. Always non-negative. *)

val bits53 : t -> int
(** [bits53 t] advances the state once and returns the top 53 bits of
    the same output [next] would have produced — the mantissa-sized
    slice used for unit-interval floats — without allocating. *)

val below : t -> int -> int
(** [below t bound] is a uniform integer in [\[0, bound)], by rejection:
    each candidate is [bits62 t land mask], where [mask] is the smallest
    [2^j - 1 >= max 1 (bound - 1)], drawn again while it is at least
    [bound]. Allocates nothing. Precondition (unchecked): [bound >= 1];
    {!Rng.int} is the checked entry point. *)

val distinct_into : t -> bound:int -> k:int -> int array -> unit
(** [distinct_into t ~bound ~k out] writes [k] pairwise-distinct values
    from [\[0, bound)] into [out.(0..k-1)], without allocating. The
    draws, the values and the final state equal those of [k] {!below}
    draws that reject a value already drawn. Preconditions (unchecked):
    [0 <= k <= bound] and [Array.length out >= k]; it is meant for
    [k] well below [bound] ({!Rng.distinct_into} checks and picks the
    branch). *)

val jump : t -> unit
(** [jump t] advances [t] by [2^128] steps. Starting from a common seed,
    repeated jumps produce non-overlapping subsequences — one per
    parallel experiment stream. *)
