(** Breadth-first search, connectivity and distance queries. *)

val bfs : Graph.t -> int -> int array
(** [bfs g src] is the array of hop distances from [src]; unreachable
    vertices get [-1]. O(n + m). *)

val bfs_multi : Graph.t -> int list -> int array
(** [bfs_multi g srcs] is the distance to the nearest of [srcs]. *)

val components : Graph.t -> int array * int
(** [components g] labels each vertex with a component id in
    [\[0, k)] and returns [(labels, k)]. *)

val is_connected : Graph.t -> bool
(** Whether the graph has exactly one connected component (the empty
    graph counts as connected); the same answer as [components g]
    having at most one component. A union-find over the edges in CSR
    order, with one [int] per vertex of scratch and no allocation per
    vertex, that stops as soon as everything is merged. *)

val largest_component : Graph.t -> int
(** Size of the largest connected component (0 for the empty graph). *)

val diameter_lower_bound : Graph.t -> rng:Rumor_rng.Rng.t -> samples:int -> int
(** [diameter_lower_bound g ~rng ~samples] runs BFS from [samples]
    random vertices (plus a double-sweep refinement) and returns the
    largest eccentricity seen — a lower bound on the diameter, and for
    random regular graphs an accurate estimate. *)
