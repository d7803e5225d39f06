(** Deterministic graph families used as baselines. *)

val complete : int -> Rumor_graph.Graph.t
(** [complete n] is [K_n] — the topology of the original phone call
    analyses ([25], [7], [33]). *)

val hypercube : int -> Rumor_graph.Graph.t
(** [hypercube k] is the [k]-dimensional hypercube on [2^k] vertices
    ([k]-regular, the bounded-degree benchmark of [17]).
    @raise Invalid_argument if [k < 0] or [k > 25]. *)

val torus2d : int -> int -> Rumor_graph.Graph.t
(** [torus2d rows cols] is the 4-regular wrap-around grid.
    @raise Invalid_argument if either side is [< 3]. *)
