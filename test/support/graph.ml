include Rumor_graph.Graph

let min_degree g =
  if n g = 0 then 0
  else begin
    let best = ref max_int in
    for v = 0 to n g - 1 do
      if degree g v < !best then best := degree g v
    done;
    !best
  end

let to_edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let mem_edge g u v =
  let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
  let rec scan i = i < degree g a && (neighbor g a i = b || scan (i + 1)) in
  scan 0

let max_degree g =
  let best = ref 0 in
  for v = 0 to n g - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let is_regular g =
  if n g = 0 then Some 0
  else begin
    let d = degree g 0 in
    let ok = ref true in
    for v = 1 to n g - 1 do
      if degree g v <> d then ok := false
    done;
    if !ok then Some d else None
  end
