(** The simulator's view of a network.

    A topology is a record of accessors rather than a concrete graph so
    that the same kernel drives static CSR graphs ({!of_graph}), the
    mutable peer-to-peer overlays of [Rumor_p2p] (which change between
    rounds under churn), and the {e implicit} seed-derived views below
    (which never materialise an edge list at all). Node identifiers are
    [0 .. capacity-1]; dead identifiers (departed peers) are skipped
    via [alive].

    {2 The implicit-topology contract}

    {!implicit_regular}, {!implicit_hypercube} and {!implicit_chords}
    compute [degree]/[neighbor] on the fly from a seed in O(1)-ish time
    and memory independent of n up to small round tables (below),
    lifting the scale ceiling from the configuration-model's n = 2^20
    to n = 10^7..10^8. They guarantee:

    - {b determinism}: the seed fully determines the neighbour
      function; two views with the same parameters are the same graph,
      on any machine;
    - {b symmetry}: [w] appears in [v]'s neighbour list exactly as many
      times as [v] appears in [w]'s (edges are unions of seed-keyed
      perfect matchings and fixed lattice edges, never one-sided
      hashes);
    - {b no self-loops}: a matching pairs distinct positions, so
      [neighbor v i <> v] always;
    - {b liveness is orthogonal}: churn, crashes and partitions mutate
      [alive]/fault state, never the edge set — the kernel already
      checks [alive u && alive w] before a call, so the implicit views
      compose with the whole fault layer unchanged.

    Random-regular and chord views may contain parallel edges (two
    matchings can pair the same nodes), exactly like the paper's
    configuration-model multigraphs before erasure; at d ≪ n their
    expected number is O(d²).

    {2 Matchings}

    Each seed-keyed matching of {!implicit_regular} and
    {!implicit_chords} is a keyed 4-round Feistel permutation [P] of
    the ids [0 .. 2^bits - 1] with [bits = ⌈log₂ n⌉], cycle-walked down
    to [0 .. n - 1]: node [v] sits at position [P v], position [p]
    pairs with [p lxor 1], and the partner is read back through [P]'s
    inverse. The two halves of a word are ⌈bits/2⌉ and ⌊bits/2⌋ bits
    wide (balanced when [bits] is even), so the cycle-walk ratio
    [2^bits / n] is below 2 for every [n] (1.75 at n = 37450, 1.34 at
    10^8), and a partner costs about [2 · 2^bits / n] permutation
    evaluations.

    A round function reads one half, at most 16 bits, so each is a
    table of 16-bit entries: 4 · (2^⌈bits/2⌉ + 2^⌊bits/2⌋) bytes per
    matching, which is 16 KB for d = 8 at n = 37450 and 768 KB at
    10^8. The 16-bit entries limit [n] to [2^32]. A view builds its
    tables once, on its first partner query, as one allocation, and
    publishes them atomically: a view shared between domains is safe,
    since a racing domain builds identical tables. Building a view is
    only a key schedule, and partner queries allocate nothing. *)

type t = {
  capacity : int;  (** exclusive upper bound on node ids *)
  degree : int -> int;  (** current degree of a node *)
  neighbor : int -> int -> int;
      (** [neighbor v i], [0 <= i < degree v]. The kernel may call it
          fewer times than it opens channels (it skips callees it does
          not need, see [Kernel.run]), so a view must not rely on calls
          for side effects. *)
  alive : int -> bool;  (** whether the id denotes a present node *)
  live_count : (unit -> int) option;
      (** O(1) live-node count when the backing structure already
          tracks it (graphs, overlays); [None] makes {!alive_count}
          fall back to an O(capacity) scan. Must agree with [alive]. *)
}

val of_graph : Rumor_graph.Graph.t -> t
(** View a static graph as a topology (every node alive). *)

val alive_count : t -> int
(** Number of live nodes — via [live_count] when provided (O(1)),
    otherwise by scanning [alive] over the id space. The kernel seeds
    its incrementally maintained census from this, so broadcast results
    report live counts without any per-run O(capacity) rescan. *)

val implicit_regular : seed:int -> n:int -> d:int -> t
(** [implicit_regular ~seed ~n ~d] is a random [d]-regular multigraph
    on [n] nodes: the union of [d] seed-keyed perfect matchings (see
    Matchings above). Every node has degree exactly [d];
    [neighbor v i] is [v]'s partner in matching [i] and raises
    [Invalid_argument] for [i] outside [0 .. d - 1]. Connected with high
    probability for [d >= 3], as for configuration-model regular
    graphs.
    @raise Invalid_argument if [n < 2], [n] is odd, [n > 2^32], or
    [d < 1]. *)

val implicit_hypercube : n:int -> t
(** [implicit_hypercube ~n] is the [k]-dimensional hypercube with
    [k = ceil(log2 n)] (capacity [2^k], every node degree [k]).
    Neighbours are listed in ascending id order — the same order
    [Rumor_gen.Classic.hypercube]'s CSR produces — so a broadcast over
    this view consumes randomness identically to one over the
    materialised cube and yields bit-identical results. Like the other
    views, [neighbor v i] raises [Invalid_argument] for [i] outside
    [0, k).
    @raise Invalid_argument if [n < 2] or [n > 2^25]. *)

val implicit_chords : seed:int -> n:int -> d:int -> t
(** [implicit_chords ~seed ~n ~d] is the [n]-cycle ([neighbor v 0] the
    predecessor, [neighbor v 1] the successor) plus [d - 2] seed-keyed
    chord matchings — a small-world ring in the spirit of the paper's
    peer-to-peer overlays, with guaranteed connectivity from the ring
    and random long-range chords for O(log n) broadcast. The chords
    are matchings as above; [neighbor v i] raises [Invalid_argument]
    for [i] outside [0 .. d - 1].
    @raise Invalid_argument if [n < 3], [n > 2^32], [d < 2], or
    [d > 2] with [n] odd. *)
