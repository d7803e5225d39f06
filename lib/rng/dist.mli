(** Standard probability distributions on top of {!Rng}.

    Used by workload generators (update arrival processes, key
    popularity), churn models (session lengths) and statistical tests. *)

val exponential : Rng.t -> rate:float -> float
(** [exponential t ~rate] draws from Exp(rate) by inversion.
    @raise Invalid_argument if [rate <= 0]. *)

val geometric : Rng.t -> p:float -> int
(** [geometric t ~p] is the number of failures before the first success
    of a Bernoulli(p) sequence (support [0, 1, 2, ...]).
    @raise Invalid_argument if [p <= 0] or [p > 1]. *)

val zipf : Rng.t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws a rank in [\[0, n)] with probability
    proportional to [1/(rank+1)^s] — the classic skewed key-popularity
    distribution for replicated-database workloads. Uses rejection
    sampling (Devroye); O(1) expected time.
    @raise Invalid_argument if [n <= 0] or [s < 0]. *)
