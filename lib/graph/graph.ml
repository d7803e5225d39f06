type t = { n : int; off : int array; adj : int array }

let check_csr ~n ~off ~adj =
  if n < 0 then invalid_arg "Graph.create: n < 0";
  if Array.length off <> n + 1 then invalid_arg "Graph.create: |off| <> n+1";
  if n >= 0 && (off.(0) <> 0 || off.(n) <> Array.length adj) then
    invalid_arg "Graph.create: offset endpoints";
  for i = 0 to n - 1 do
    if off.(i) > off.(i + 1) then invalid_arg "Graph.create: offsets decrease"
  done;
  Array.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Graph.create: endpoint range")
    adj

let create ~n ~off ~adj =
  check_csr ~n ~off ~adj;
  { n; off; adj }

let of_edges ~n edges =
  let deg = Array.make n 0 in
  let bump v =
    if v < 0 || v >= n then invalid_arg "Graph.of_edges: endpoint range";
    deg.(v) <- deg.(v) + 1
  in
  List.iter
    (fun (u, v) ->
      bump u;
      bump v)
    edges;
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let adj = Array.make off.(n) 0 in
  let cursor = Array.copy off in
  let put u v =
    adj.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1
  in
  List.iter
    (fun (u, v) ->
      put u v;
      put v u)
    edges;
  { n; off; adj }

let n g = g.n
let m g = Array.length g.adj / 2
let degree g v = g.off.(v + 1) - g.off.(v)
let neighbor g v i = g.adj.(g.off.(v) + i)

let neighbors g v = Array.sub g.adj g.off.(v) (degree g v)

let iter_neighbors g v f =
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.adj.(i)
  done

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun w -> acc := f !acc w);
  !acc

let iter_edges g f =
  for v = 0 to g.n - 1 do
    iter_neighbors g v (fun w ->
        if v < w then f v w
        else if v = w then
          (* A self-loop appears twice in v's list; report it once. *)
          ())
  done;
  (* Self-loops: each appears twice in the list of its endpoint. *)
  for v = 0 to g.n - 1 do
    let loops = fold_neighbors g v (fun c w -> if w = v then c + 1 else c) 0 in
    for _ = 1 to loops / 2 do
      f v v
    done
  done

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let count_self_loops g =
  let total = ref 0 in
  for v = 0 to g.n - 1 do
    iter_neighbors g v (fun w -> if w = v then incr total)
  done;
  !total / 2

(* Insertion sort of [a.(0 .. len-1)]: monomorphic int comparisons, no
   allocation, and degrees are small enough that O(d^2) beats the
   polymorphic [Array.sort compare] it replaces. *)
let sort_int_prefix a len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let count_parallel_edges g =
  let surplus = ref 0 in
  let scratch = Array.make (max_degree g) 0 in
  for v = 0 to g.n - 1 do
    let d = degree g v in
    for i = 0 to d - 1 do
      scratch.(i) <- neighbor g v i
    done;
    sort_int_prefix scratch d;
    for i = 1 to d - 1 do
      (* Count duplicates from v's side only for v <= w to avoid double
         counting; self-loop duplicates are not parallel edges. *)
      if scratch.(i) = scratch.(i - 1) && scratch.(i) > v then incr surplus
    done
  done;
  !surplus

let is_simple g = count_self_loops g = 0 && count_parallel_edges g = 0

let invariant g =
  try
    check_csr ~n:g.n ~off:g.off ~adj:g.adj;
    (* Symmetry as a multiset: sorting the directed edge list both ways
       must coincide. *)
    let cmp (a1, b1) (a2, b2) =
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare b1 b2
    in
    let dir = Array.make (Array.length g.adj) (0, 0) in
    let k = ref 0 in
    for v = 0 to g.n - 1 do
      iter_neighbors g v (fun w ->
          dir.(!k) <- (v, w);
          incr k)
    done;
    let rev = Array.map (fun (u, v) -> (v, u)) dir in
    Array.sort cmp dir;
    Array.sort cmp rev;
    let equal = ref true in
    for i = 0 to Array.length dir - 1 do
      if cmp dir.(i) rev.(i) <> 0 then equal := false
    done;
    !equal
  with Invalid_argument _ -> false
