(** The configuration (pairing) model of Section 1.2 of the paper.

    Every vertex [v] gets [deg.(v)] stubs; a uniform perfect matching on
    the stubs defines the multigraph: repeatedly pair the first
    unmatched stub with a uniform unmatched stub. Conditioned on the
    result being simple, the graph is uniform among simple graphs with
    that degree sequence. *)

val pair : rng:Rumor_rng.Rng.t -> deg:int array -> Rumor_graph.Graph.t
(** [pair ~rng ~deg] samples one pairing. The result may contain
    self-loops and parallel edges, exactly as the paper's process.

    The stubs live in one 4-byte-per-stub buffer (a [Bytes.t] read and
    written as signed 32-bit cells), which is shuffled with exactly
    {!Rumor_rng.Rng.shuffle}'s draws: one [Rng.int rng (total - i)] for
    every position [i], the last one included. Consecutive stubs are
    then scattered straight into the CSR arrays in edge order, with
    offsets taken from [deg], so neighbour order is the one
    {!Rumor_graph.Builder.build} gives for the same edge sequence. No
    edge list is built; the result is checked by
    {!Rumor_graph.Graph.create}. Peak footprint is 12 bytes per stub
    (the buffer plus the adjacency array) and 8 bytes per vertex (the
    offsets).
    @raise Invalid_argument if the degree sum is odd, a degree is
    negative, or [Array.length deg > 2^31] (ids that do not fit 31 bits
    are rejected rather than wrapped). *)

val pair_simple :
  rng:Rumor_rng.Rng.t -> deg:int array -> max_attempts:int ->
  Rumor_graph.Graph.t option
(** [pair_simple ~rng ~deg ~max_attempts] retries {!pair} until the
    result is simple — uniform over simple graphs with degree sequence
    [deg]. [None] after [max_attempts] failures. For [d]-regular
    sequences the per-attempt success probability is about
    [exp(-(d^2-1)/4)], so a few hundred attempts suffice for the small
    degrees this project targets. *)

val erase : Rumor_graph.Graph.t -> Rumor_graph.Graph.t
(** [erase g] drops self-loops and collapses parallel edges — the
    "erased configuration model". The result is simple but only
    near-regular; for [d = O(polylog n)] an expected [O(d^2)] edges are
    lost in total. *)
