(** Unified random-number interface used by every other library.

    All randomness in the project flows through a value of type {!t},
    created from an integer seed, so that every graph, protocol run and
    experiment is exactly reproducible. The implementation is
    {!Xoshiro}256** seeded through SplitMix64; a stream is its 32-byte
    state of four unboxed [int64] words.

    {!int}, {!bernoulli}, {!distinct_into} and {!shuffle_prefix}
    allocate nothing per draw.
    {!bits64} returns a boxed [int64] and {!float} a boxed float (two
    words at the call boundary): a hot loop that only compares a
    uniform float against [p] calls {!bernoulli}. *)

type t
(** A mutable stream of pseudo-random values. *)

val create : int -> t
(** [create seed] returns a fresh stream determined by [seed]. *)

val copy : t -> t
(** [copy t] duplicates the stream state. *)

val split : t -> t
(** [split t] returns a new stream whose future output is independent of
    [t]'s (seeded from [t]'s next outputs); [t] itself advances. Use it
    to hand sub-streams to components without coupling their draws. *)

val fork : t -> int -> t
(** [fork t i] derives a stream from [t]'s current state and the index
    [i] {e without} advancing [t]. Two different indices give independent
    streams: the canonical way to give each of [k] repetitions its own
    reproducible randomness. *)

val bits64 : t -> int64
(** [bits64 t] is 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)], without modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** [float t] is uniform on [\[0, 1)] with 53 random bits. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] ([p] clamped to
    [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] uniformly in place (Fisher–Yates). *)

val shuffle_prefix : t -> 'a array -> int -> unit
(** [shuffle_prefix t a k] places a uniform [k]-subset of [a] in
    uniform order into [a.(0..k-1)] (partial Fisher–Yates); the rest of
    [a] holds the remaining elements in unspecified order.
    @raise Invalid_argument if [k < 0] or [k > Array.length a]. *)

val distinct : t -> bound:int -> k:int -> int array
(** [distinct t ~bound ~k] is an array of [k] pairwise-distinct uniform
    integers from [\[0, bound)] — the "choose four distinct neighbours"
    primitive of the paper's model. Uses rejection for small [k]
    (expected O(k^2) comparisons) and partial Fisher–Yates otherwise.
    @raise Invalid_argument if [k < 0] or [k > bound]. *)

val distinct_into : t -> bound:int -> k:int -> int array -> int
(** [distinct_into t ~bound ~k out] writes [k] pairwise-distinct uniform
    integers from [\[0, bound)] into [out.(0..k-1)] and returns [k];
    allocation-free fast path for the simulator inner loop. For
    [2k <= bound] it makes exactly the draws of [k] {!int} calls with
    duplicates rejected (in one register-resident loop,
    {!Xoshiro.distinct_into}); otherwise those of {!shuffle_prefix} on
    the identity array.
    @raise Invalid_argument if [k < 0], [k > bound] or
    [Array.length out < k]. *)
