(* Empirical checks of the Expander-Mixing Lemma on sampled vertex sets
   of generated graphs. *)

module Rng = Rumor_rng.Rng

type sample = {
  set_size : int;
  boundary : int;
  expected : float;
  discrepancy : float;
}

let sample_set g ~rng ~size =
  let n = Graph.n g in
  if size < 1 || size >= n then invalid_arg "Mixing.sample_set: size";
  let members = Rng.distinct rng ~bound:n ~k:size in
  let inside = Array.make n false in
  Array.iter (fun v -> inside.(v) <- true) members;
  let boundary = Metrics.edge_boundary g inside in
  let d =
    match Graph.is_regular g with
    | Some d -> float_of_int d
    | None -> (Metrics.degree_stats g).Metrics.mean
  in
  let s = float_of_int size and c = float_of_int (n - size) in
  let expected = d *. s *. c /. float_of_int n in
  let discrepancy = abs_float (float_of_int boundary -. expected) /. sqrt (s *. c) in
  { set_size = size; boundary; expected; discrepancy }

let max_discrepancy g ~rng ~sizes ~per_size =
  List.fold_left
    (fun acc size ->
      let worst = ref acc in
      for _ = 1 to max per_size 1 do
        let s = sample_set g ~rng ~size in
        if s.discrepancy > !worst then worst := s.discrepancy
      done;
      !worst)
    0. sizes
