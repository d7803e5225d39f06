(* Random walks on graphs: a mixed walk on a regular graph ends at an
   almost-uniform vertex, which tests check on generated instances. *)

module Rng = Rumor_rng.Rng

let step rng g v =
  let d = Graph.degree g v in
  if d = 0 then invalid_arg "Walk.step: isolated vertex";
  Graph.neighbor g v (Rng.int rng d)

let endpoint rng g ~start ~length =
  if length < 0 then invalid_arg "Walk.endpoint: negative length";
  let v = ref start in
  for _ = 1 to length do
    v := step rng g !v
  done;
  !v

let path rng g ~start ~length =
  if length < 0 then invalid_arg "Walk.path: negative length";
  let out = Array.make (length + 1) start in
  for i = 1 to length do
    out.(i) <- step rng g out.(i - 1)
  done;
  out

let endpoint_counts rng g ~start ~length ~samples =
  let counts = Array.make (Graph.n g) 0 in
  for _ = 1 to max samples 1 do
    let v = endpoint rng g ~start ~length in
    counts.(v) <- counts.(v) + 1
  done;
  counts

let total_variation_from_uniform counts =
  let n = Array.length counts in
  if n = 0 then invalid_arg "Walk.total_variation_from_uniform: empty";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then invalid_arg "Walk.total_variation_from_uniform: no samples";
  let uniform = 1. /. float_of_int n in
  let sum =
    Array.fold_left
      (fun acc c ->
        acc +. abs_float ((float_of_int c /. float_of_int total) -. uniform))
      0. counts
  in
  sum /. 2.

let cover_steps rng g ~start ~limit =
  let n = Graph.n g in
  let seen = Array.make n false in
  seen.(start) <- true;
  let remaining = ref (n - 1) in
  let v = ref start in
  let steps = ref 0 in
  while !remaining > 0 && !steps < limit do
    incr steps;
    v := step rng g !v;
    if not seen.(!v) then begin
      seen.(!v) <- true;
      decr remaining
    end
  done;
  if !remaining = 0 then Some !steps else None
