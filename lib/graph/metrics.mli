(** Degree statistics of a graph. *)

type degree_stats = {
  min : int;
  max : int;
  mean : float;
  variance : float;
}
(** Summary of the degree sequence. *)

val degree_stats : Graph.t -> degree_stats
(** Degree summary; all-zero on the empty graph. *)
