(** Erdős–Rényi random graphs [G(n,p)], the baseline model of the
    related work ([11], [13]). *)

val sample : rng:Rumor_rng.Rng.t -> n:int -> p:float -> Rumor_graph.Graph.t
(** [sample ~rng ~n ~p] draws each of the [n(n-1)/2] possible edges
    independently with probability [p], in expected time
    O(n + p*n^2) via geometric edge skipping.
    @raise Invalid_argument if [p] is outside [\[0, 1\]] or [n < 0]. *)
