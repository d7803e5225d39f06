(** Per-round record of a broadcast run, for phase-dynamics experiments
    (E4) and debugging. *)

type row = {
  round : int;
  informed : int;  (** informed nodes at the end of the round *)
  newly : int;  (** nodes informed during this round *)
  push_tx : int;  (** push transmissions this round *)
  pull_tx : int;  (** pull transmissions this round *)
  channels : int;  (** channels successfully opened this round *)
}

type t
(** A growable trace. *)

val create : unit -> t
val add : t -> row -> unit
val length : t -> int
val get : t -> int -> row
val rows : t -> row list
(** Rows in round order. *)

val pp : Format.formatter -> t -> unit
(** Render the whole trace as an aligned table. *)

val informed_series : t -> float array
(** The informed count per round, as floats (sparkline / fit input). *)
