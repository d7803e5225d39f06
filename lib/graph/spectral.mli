(** Spectral estimates for (near-)regular graphs.

    The lower-bound proof (Section 2) relies on the Expander-Mixing
    Lemma with [lambda_2 <= 2*sqrt(d-1)*(1+o(1))] for random regular
    graphs (Friedman's theorem). This module estimates [lambda_2] by
    power iteration so experiments and tests can verify the property on
    generated instances. *)

val lambda2 : Graph.t -> rng:Rumor_rng.Rng.t -> iters:int -> float
(** [lambda2 g ~rng ~iters] estimates [max(|mu_2|, |mu_n|)] — the
    largest adjacency eigenvalue in absolute value after deflating the
    all-ones direction — by [iters] rounds of power iteration from a
    random start vector. Meaningful for regular or near-regular graphs,
    where the top eigenvector is (close to) the all-ones vector. *)

val ramanujan_bound : int -> float
(** [ramanujan_bound d] is [2 * sqrt (d - 1)], the asymptotic
    second-eigenvalue bound met by random regular graphs. *)
