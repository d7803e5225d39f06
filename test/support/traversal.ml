module Rng = Rumor_rng.Rng
include Rumor_graph.Traversal

let eccentricity g v =
  let dist = bfs g v in
  Array.fold_left max 0 dist

let average_distance g ~rng ~samples =
  let n = Graph.n g in
  if n = 0 then nan
  else begin
    let total = ref 0 and count = ref 0 in
    for _ = 1 to max samples 1 do
      let s = Rng.int rng n in
      let dist = bfs g s in
      Array.iter
        (fun d ->
          if d > 0 then begin
            total := !total + d;
            incr count
          end)
        dist
    done;
    if !count = 0 then nan else float_of_int !total /. float_of_int !count
  end
