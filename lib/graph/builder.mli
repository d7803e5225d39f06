(** Incremental construction of {!Graph.t} values.

    Generators accumulate edges into a builder (amortised O(1) per
    edge, arrays rather than lists) and seal it into a CSR graph. *)

type t
(** A mutable edge accumulator over a fixed vertex set. *)

val create : ?capacity:int -> n:int -> unit -> t
(** [create ~n ()] is an empty builder on vertices [0 .. n-1].
    [capacity] pre-sizes the edge store. *)

val add_edge : t -> int -> int -> unit
(** [add_edge b u v] records the undirected edge [(u, v)]. Parallel
    edges and self-loops are recorded as given.
    @raise Invalid_argument if an endpoint is outside [\[0, n)]. *)

val build : t -> Graph.t
(** [build b] seals the accumulated edges into a graph. The builder
    may continue to accumulate afterwards (the graph is a snapshot). *)
