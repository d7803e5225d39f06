module Rng = Rumor_rng.Rng

let bfs_into g srcs dist =
  Array.fill dist 0 (Array.length dist) (-1);
  let queue = Array.make (Graph.n g) 0 in
  let head = ref 0 and tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    srcs;
  (* Indexed neighbour reads rather than [Graph.iter_neighbors]: a
     closure per dequeued vertex would be n allocations per search. *)
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) + 1 in
    for i = 0 to Graph.degree g v - 1 do
      let w = Graph.neighbor g v i in
      if dist.(w) < 0 then begin
        dist.(w) <- dv;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done

let bfs_multi g srcs =
  let dist = Array.make (Graph.n g) (-1) in
  bfs_into g srcs dist;
  dist

let bfs g src = bfs_multi g [ src ]

let components g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let queue = Array.make n 0 in
  let k = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let c = !k in
      incr k;
      label.(s) <- c;
      let head = ref 0 and tail = ref 1 in
      queue.(0) <- s;
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        for i = 0 to Graph.degree g v - 1 do
          let w = Graph.neighbor g v i in
          if label.(w) < 0 then begin
            label.(w) <- c;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done;
  (label, !k)

(* Union-find over the [v < w] edges in CSR order, with path halving:
   one [int array] and no queue, and the scan stops once a single
   component remains. Roots link by index (the larger under the
   smaller), so the root of the vertex being scanned is tracked across
   its edges instead of found again. Self-loops and parallel edges
   merge nothing. *)
let is_connected g =
  let n = Graph.n g in
  let parent = Array.init n Fun.id in
  let rec find x =
    let p = parent.(x) in
    if p = x then x
    else begin
      let gp = parent.(p) in
      parent.(x) <- gp;
      if gp = p then p else find gp
    end
  in
  let comps = ref n and u = ref 0 in
  while !comps > 1 && !u < n do
    let v = !u in
    let rv = ref (find v) in
    for i = 0 to Graph.degree g v - 1 do
      let w = Graph.neighbor g v i in
      if v < w then begin
        let rw = find w in
        if !rv < rw then begin
          parent.(rw) <- !rv;
          decr comps
        end
        else if rw < !rv then begin
          parent.(!rv) <- rw;
          rv := rw;
          decr comps
        end
      end
    done;
    incr u
  done;
  !comps <= 1

let largest_component g =
  let label, k = components g in
  if k = 0 then 0
  else begin
    let size = Array.make k 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) label;
    Array.fold_left max 0 size
  end

let farthest g v =
  let dist = bfs g v in
  let best = ref v and best_d = ref 0 in
  Array.iteri
    (fun w d ->
      if d > !best_d then begin
        best := w;
        best_d := d
      end)
    dist;
  (!best, !best_d)

let diameter_lower_bound g ~rng ~samples =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for _ = 1 to max samples 1 do
      let s = Rng.int rng n in
      (* Double sweep: BFS to the farthest vertex, then BFS back. *)
      let far, d1 = farthest g s in
      let _, d2 = farthest g far in
      if d1 > !best then best := d1;
      if d2 > !best then best := d2
    done;
    !best
  end
