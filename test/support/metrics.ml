module Rng = Rumor_rng.Rng
include Rumor_graph.Metrics

let degree_histogram g =
  let hist = Array.make (Graph.max_degree g + 1) 0 in
  for v = 0 to Graph.n g - 1 do
    let d = Graph.degree g v in
    hist.(d) <- hist.(d) + 1
  done;
  hist

let triangles_at g v =
  let d = Graph.degree g v in
  let count = ref 0 in
  for i = 0 to d - 1 do
    for j = i + 1 to d - 1 do
      let a = Graph.neighbor g v i and b = Graph.neighbor g v j in
      if a <> v && b <> v && a <> b && Graph.mem_edge g a b then incr count
    done
  done;
  !count

let local_clustering g v =
  let d = Graph.degree g v in
  if d < 2 then 0.
  else begin
    let pairs = d * (d - 1) / 2 in
    float_of_int (triangles_at g v) /. float_of_int pairs
  end

let global_clustering g ~rng ~samples =
  let n = Graph.n g in
  if n = 0 then nan
  else begin
    let total = ref 0. in
    let samples = max samples 1 in
    for _ = 1 to samples do
      total := !total +. local_clustering g (Rng.int rng n)
    done;
    !total /. float_of_int samples
  end

let edge_boundary g inside =
  let cut = ref 0 in
  Graph.iter_edges g (fun u v -> if inside.(u) <> inside.(v) then incr cut);
  !cut

let internal_edges g inside =
  let total = ref 0 in
  Graph.iter_edges g (fun u v -> if inside.(u) && inside.(v) then incr total);
  !total

let conductance g inside =
  let vol_in = ref 0 and vol_out = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if inside.(v) then vol_in := !vol_in + Graph.degree g v
    else vol_out := !vol_out + Graph.degree g v
  done;
  let denom = min !vol_in !vol_out in
  if denom = 0 then nan
  else float_of_int (edge_boundary g inside) /. float_of_int denom
