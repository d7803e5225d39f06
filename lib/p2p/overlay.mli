(** Mutable peer-to-peer overlay networks.

    An overlay is an undirected multigraph over node ids
    [0 .. capacity-1] whose nodes can appear and depart and whose edges
    can be rewired between broadcast rounds — the "random topologies
    maintained by a Markov process" setting the paper's introduction
    describes. {!to_topology} plugs an overlay straight into the
    simulation engine; mutations made by [on_round_end] callbacks are
    visible in the next round. *)

type t

val create : capacity:int -> t
(** An overlay with no live nodes, supporting ids [0 .. capacity-1]. *)

val of_graph : capacity:int -> Rumor_graph.Graph.t -> t
(** Copy a static graph into an overlay (all graph nodes live).
    @raise Invalid_argument if [capacity < Graph.n g]. *)

val capacity : t -> int
val node_count : t -> int
(** Live nodes. *)

val is_alive : t -> int -> bool
val degree : t -> int -> int
(** Degree of a live node; 0 for dead ids. *)

val neighbor : t -> int -> int -> int
(** [neighbor t v i] is [v]'s [i]-th adjacency entry; [i] is checked
    against the adjacency length, also through the {!to_topology} view.
    @raise Invalid_argument if [i] is outside [\[0, degree t v)]. *)

val neighbors : t -> int -> int list

val activate : t -> int
(** Bring a dead id to life (no edges yet) and return it.
    @raise Failure if the overlay is at capacity. *)

val deactivate : t -> int -> unit
(** Remove a node and {e all} its incident edges (its former neighbours
    lose degree — callers wanting degree-preserving departure should
    use {!Churn.leave} instead).
    @raise Invalid_argument if the node is not alive. *)

val add_edge : t -> int -> int -> unit
(** Connect two live nodes (parallel edges and self-loops allowed;
    a self-loop adds two entries to the node's list).
    @raise Invalid_argument on dead endpoints. *)

val remove_edge : t -> int -> int -> bool
(** Remove one copy of the edge if present; [false] if absent. *)

val random_node : t -> Rumor_rng.Rng.t -> int
(** Uniform live node.
    @raise Failure on an empty overlay. *)

val random_edge : t -> Rumor_rng.Rng.t -> (int * int) option
(** A uniform edge (each copy equally likely), as an ordered pair
    (endpoint from whose list it was drawn first); [None] if there are
    no edges. *)

val edge_count : t -> int
(** Current number of edges (self-loops count once). *)

val to_topology : t -> Rumor_sim.Topology.t
(** A live view (not a copy): later mutations are seen by the engine
    at the next access. *)

val snapshot : t -> Rumor_graph.Graph.t
(** Freeze the live part into a static graph {e on the same ids}
    (dead ids become isolated vertices). *)

val invariant : t -> bool
(** Adjacency symmetry, liveness consistency; for tests. *)
