(** Bytes-backed fixed-width unsigned cells for per-node counters.

    A [bool array] costs a word per flag and an [int array] a word per
    counter; {!Bitset} shrinks the former to a bit, this module shrinks
    the latter to its natural width. The kernel's duplicate tallies
    are bounded by the per-round delivery count (two bytes), and a
    packed-state protocol's whole per-node record by its declared bit
    width — at n = 10^8 that is the difference between 800 MB and
    100–200 MB per array.

    Cells are unsigned. Every access is bounds-checked, and [set]
    additionally range-checks the value against the width: storing a
    value that does not fit raises [Invalid_argument] — an explicit
    failure, never a silent wrap. *)

type width = W8 | W16 | W32  (** Cell size: 1, 2 or 4 bytes. *)

type t

val create : width -> int -> t
(** [create w n] is [n] cells of width [w], all zero. The backing
    buffer is padded to a whole number of 64-bit words (unreachable
    through the accessors) so {!fill} runs word-parallel. *)

val max_value : t -> int
(** Largest storable value: [2^bits - 1]. *)

val bits_of_width : width -> int

val width_of_bits : int -> width
(** Inverse of {!bits_of_width}; raises [Invalid_argument] unless the
    argument is 8, 16 or 32. *)

val width_for : int -> width
(** Smallest width whose {!max_value} admits the given value. Raises
    [Invalid_argument] on negatives and on values above [2^32 - 1]. *)

val get : t -> int -> int
(** [get t i] is the value of cell [i], in [\[0, max_value t\]].
    32-bit cells are read as two 16-bit halves so no load ever boxes an
    [Int32]. Raises [Invalid_argument] out of bounds. *)

val set : t -> int -> int -> unit
(** [set t i v] stores [v] in cell [i]. Raises [Invalid_argument] when
    [i] is out of bounds {e or} [v] is outside [\[0, max_value t\]] —
    overflow is an error, not a wrap. *)

val fill : t -> int -> unit
(** Set every cell to the given value, 64 bits per store (a plain
    [memset] when the replicated pattern's bytes coincide). Range-checks
    the value like {!set}. *)
