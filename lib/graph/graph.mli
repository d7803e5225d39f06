(** Compact immutable undirected graphs in compressed-sparse-row form.

    Vertices are integers [0 .. n-1]. The adjacency of each vertex is a
    {e multiset}: parallel edges appear once per copy and a self-loop
    [(v,v)] appears twice in [v]'s list (it consumes two stubs of [v],
    matching the configuration model of the paper, Section 1.2). The
    degree of [v] is the length of its adjacency list. *)

type t
(** An immutable undirected multigraph. *)

val create : n:int -> off:int array -> adj:int array -> t
(** [create ~n ~off ~adj] wraps raw CSR arrays. [off] must have length
    [n+1], be non-decreasing, start at 0 and end at [Array.length adj];
    every entry of [adj] must lie in [\[0, n)].
    @raise Invalid_argument if the arrays are malformed. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] vertices from an
    undirected edge list. Each pair [(u, v)] contributes one edge; pass
    a pair twice for a parallel edge. Self-loops are allowed.
    @raise Invalid_argument if an endpoint is outside [\[0, n)]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges (self-loops count once, parallel edges
    once per copy). *)

val degree : t -> int -> int
(** [degree g v] is the size of [v]'s adjacency multiset. *)

val neighbor : t -> int -> int -> int
(** [neighbor g v i] is the [i]-th entry of [v]'s adjacency list,
    [0 <= i < degree g v]. Unchecked for speed in inner loops. *)

val neighbors : t -> int -> int array
(** [neighbors g v] is a fresh array of [v]'s adjacency list. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbour of [v]
    (with multiplicity). *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold_neighbors g v f init] folds over [v]'s adjacency list. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] applies [f u v] once per undirected edge with
    [u <= v] (once per copy for parallel edges). *)

val count_self_loops : t -> int
(** Number of self-loops. *)

val count_parallel_edges : t -> int
(** Number of surplus edge copies: a pair joined by [k >= 2] edges
    contributes [k - 1]. A simple graph scores 0 on this and on
    {!count_self_loops}. *)

val is_simple : t -> bool
(** No self-loops and no parallel edges. *)

val invariant : t -> bool
(** Structural self-check: offsets well-formed, adjacency symmetric as
    a multiset. Intended for tests; O(n + m log m). *)
