(** Descriptive statistics of a sample of floats. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p10 : float;
  p90 : float;
}

val of_array : float array -> t
(** Summarise a sample.
    @raise Invalid_argument on the empty array. *)

val of_list : float list -> t
(** List version of {!of_array}. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0, 1\]] interpolates linearly
    in an already-sorted array.
    @raise Invalid_argument on an empty array or [q] out of range. *)

val ci95_halfwidth : t -> float
(** Half-width of the normal-approximation 95% confidence interval of
    the mean: [1.96 * stddev / sqrt count]; 0 for singleton samples. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering ["mean ± ci [min, max]"]. *)
