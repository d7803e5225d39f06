(** Least-squares fits, used to recover empirical scaling exponents
    (e.g. "transmissions per node grow like [log n]" shows up as slope
    ≈ 1 in a fit against [log2 n]). *)

type fit = {
  slope : float;
  intercept : float;
  r2 : float;  (** coefficient of determination *)
}

val linear : (float * float) list -> fit
(** [linear points] fits [y = slope*x + intercept].
    @raise Invalid_argument with fewer than 2 points or zero variance
    in [x]. *)

val semilogx : (float * float) list -> fit
(** [semilogx points] fits [y = slope * log2 x + intercept]: slope is
    the "per doubling of x" growth — the natural scale for
    [Theta(log n)] claims. *)
