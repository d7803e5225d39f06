module Metrics = Rumor_graph.Metrics
include Rumor_graph.Spectral

let spectral_gap g ~rng ~iters =
  let d =
    match Graph.is_regular g with
    | Some d -> float_of_int d
    | None -> (Metrics.degree_stats g).Metrics.mean
  in
  d -. lambda2 g ~rng ~iters

let mixing_time_estimate g ~rng ~eps =
  let n = float_of_int (Graph.n g) in
  if n <= 1. then 0.
  else begin
    let d =
      match Graph.is_regular g with
      | Some d -> float_of_int d
      | None -> (Metrics.degree_stats g).Metrics.mean
    in
    let l2 = lambda2 g ~rng ~iters:60 in
    if l2 <= 0. || l2 >= d then infinity
    else log (n /. eps) /. log (d /. l2)
  end
