(** Bytes-backed bitset: one bit per node id, word-parallel scans.

    The engine's per-node flags ([informed], [pending], the decision
    cache) live here instead of in [bool array]s — 8× less memory and
    far better cache behaviour at the n = 2^20..10^8 scale the paper's
    asymptotic separations need. The backing buffer is sized in whole
    64-bit words; {!cardinal}, {!iter_set} and {!next_set} scan 64 bits
    per load, so walking an informed set costs O(words touched), not
    O(capacity) bit probes.

    Invariants: indices are bounds-checked against {!length} (an index
    in the padding of the last word raises [Invalid_argument] instead
    of silently reading or corrupting padding bits), and padding bits
    are always zero — which is exactly what keeps the word-level scans
    honest after arbitrary [set]/[clear]/[assign] churn. *)

type t

val create : int -> t
(** [create n] is a bitset of [n] bits, all unset.
    @raise Invalid_argument if [n < 0]. *)

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
(** @raise Invalid_argument if the index is outside [\[0, length)]. *)

val set : t -> int -> unit
(** @raise Invalid_argument if the index is outside [\[0, length)]. *)

val clear : t -> int -> unit
(** @raise Invalid_argument if the index is outside [\[0, length)]. *)

val assign : t -> int -> bool -> unit
(** [assign t i b] sets bit [i] to [b].
    @raise Invalid_argument if the index is outside [\[0, length)]. *)

val reset : t -> unit
(** Unset every bit. *)

val cardinal : t -> int
(** Number of set bits, by word-level popcount (no per-bit probing). *)

val iter_set : t -> (int -> unit) -> unit
(** [iter_set t f] applies [f] to every set index in increasing order,
    skipping zero words 64 bits at a time. *)

val next_set : t -> int -> int
(** [next_set t i] is the smallest set index [>= i], or [-1] if there
    is none. [i >= length t] returns [-1], so [next_set t (j + 1)]
    iterates without a separate end test.
    @raise Invalid_argument if [i < 0]. *)

val copy : t -> t
(** An independent bitset with the same length and contents. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src], word-parallel.
    @raise Invalid_argument if the lengths differ. *)
