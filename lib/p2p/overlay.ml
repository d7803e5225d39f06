module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Builder = Rumor_graph.Builder

type vec = { mutable data : int array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let cap = max 4 (2 * Array.length v.data) in
    let data = Array.make cap 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* Remove the first occurrence of [x], preserving nothing about order. *)
let vec_remove_one v x =
  let rec find i = if i >= v.len then -1 else if v.data.(i) = x then i else find (i + 1) in
  let i = find 0 in
  if i < 0 then false
  else begin
    v.data.(i) <- v.data.(v.len - 1);
    v.len <- v.len - 1;
    true
  end

type t = {
  cap : int;
  adj : vec array;
  alive : bool array;
  mutable live : int;
  mutable stubs : int;  (* total adjacency entries = 2 * edges *)
  mutable deg_bound : int;  (* monotone upper bound on any degree *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Overlay.create: capacity < 0";
  {
    cap = capacity;
    adj = Array.init capacity (fun _ -> vec_create ());
    alive = Array.make capacity false;
    live = 0;
    stubs = 0;
    deg_bound = 1;
  }

let capacity t = t.cap
let node_count t = t.live
let is_alive t v = v >= 0 && v < t.cap && t.alive.(v)
let degree t v = t.adj.(v).len

let neighbor t v i =
  if i < 0 || i >= t.adj.(v).len then invalid_arg "Overlay.neighbor: index";
  t.adj.(v).data.(i)

let neighbors t v = Array.to_list (Array.sub t.adj.(v).data 0 t.adj.(v).len)

let activate t =
  let rec find i =
    if i >= t.cap then failwith "Overlay.activate: at capacity"
    else if not t.alive.(i) then i
    else find (i + 1)
  in
  let v = find 0 in
  t.alive.(v) <- true;
  t.live <- t.live + 1;
  v

let add_edge t u v =
  if not (is_alive t u) || not (is_alive t v) then
    invalid_arg "Overlay.add_edge: dead endpoint";
  vec_push t.adj.(u) v;
  vec_push t.adj.(v) u;
  t.stubs <- t.stubs + 2;
  t.deg_bound <- max t.deg_bound (max t.adj.(u).len t.adj.(v).len)

let remove_edge t u v =
  if u = v then begin
    (* A self-loop is two entries in the same list. *)
    if vec_remove_one t.adj.(u) v then begin
      let second = vec_remove_one t.adj.(u) v in
      assert second;
      t.stubs <- t.stubs - 2;
      true
    end
    else false
  end
  else if vec_remove_one t.adj.(u) v then begin
    let other = vec_remove_one t.adj.(v) u in
    assert other;
    t.stubs <- t.stubs - 2;
    true
  end
  else false

let deactivate t v =
  if not (is_alive t v) then invalid_arg "Overlay.deactivate: not alive";
  let a = t.adj.(v) in
  for i = 0 to a.len - 1 do
    let w = a.data.(i) in
    if w <> v then begin
      let removed = vec_remove_one t.adj.(w) v in
      assert removed;
      t.stubs <- t.stubs - 1
    end
  done;
  t.stubs <- t.stubs - a.len;
  a.len <- 0;
  t.alive.(v) <- false;
  t.live <- t.live - 1

let random_node t rng =
  if t.live = 0 then failwith "Overlay.random_node: empty overlay";
  let rec go () =
    let v = Rng.int rng t.cap in
    if t.alive.(v) then v else go ()
  in
  go ()

let random_edge t rng =
  if t.stubs = 0 then None
  else begin
    (* Degree-proportional node choice by rejection against the degree
       bound, then a uniform incident stub: every stub equally likely. *)
    let rec go budget =
      if budget = 0 then begin
        (* Pathological acceptance rate: fall back to an exact O(cap)
           scan over stubs. *)
        let target = Rng.int rng t.stubs in
        let acc = ref 0 and res = ref None and v = ref 0 in
        while !res = None && !v < t.cap do
          let l = t.adj.(!v).len in
          if target < !acc + l then res := Some (!v, t.adj.(!v).data.(target - !acc));
          acc := !acc + l;
          incr v
        done;
        !res
      end
      else begin
        let v = Rng.int rng t.cap in
        let d = t.adj.(v).len in
        if t.alive.(v) && d > 0 && Rng.int rng t.deg_bound < d then
          Some (v, t.adj.(v).data.(Rng.int rng d))
        else go (budget - 1)
      end
    in
    go 10_000
  end

let edge_count t = t.stubs / 2

let to_topology t =
  {
    Rumor_sim.Topology.capacity = t.cap;
    degree = (fun v -> t.adj.(v).len);
    neighbor = (fun v i -> neighbor t v i);
    alive = (fun v -> t.alive.(v));
    live_count = Some (fun () -> t.live);
  }

let of_graph ~capacity g =
  if capacity < Graph.n g then invalid_arg "Overlay.of_graph: capacity too small";
  let t = create ~capacity in
  for v = 0 to Graph.n g - 1 do
    t.alive.(v) <- true;
    t.live <- t.live + 1
  done;
  Graph.iter_edges g (fun u v -> add_edge t u v);
  t

let snapshot t =
  let b = Builder.create ~capacity:(max (edge_count t) 1) ~n:t.cap () in
  for v = 0 to t.cap - 1 do
    let a = t.adj.(v) in
    let loops = ref 0 in
    for i = 0 to a.len - 1 do
      let w = a.data.(i) in
      if w > v then Builder.add_edge b v w else if w = v then incr loops
    done;
    for _ = 1 to !loops / 2 do
      Builder.add_edge b v v
    done
  done;
  Builder.build b

let invariant t =
  let ok = ref true in
  let total = ref 0 in
  for v = 0 to t.cap - 1 do
    let a = t.adj.(v) in
    total := !total + a.len;
    if (not t.alive.(v)) && a.len > 0 then ok := false;
    for i = 0 to a.len - 1 do
      let w = a.data.(i) in
      if not (is_alive t w) then ok := false
    done
  done;
  if !total <> t.stubs then ok := false;
  (* Multiset symmetry. *)
  let count v x =
    let a = t.adj.(v) in
    let c = ref 0 in
    for i = 0 to a.len - 1 do
      if a.data.(i) = x then incr c
    done;
    !c
  in
  for v = 0 to t.cap - 1 do
    let a = t.adj.(v) in
    for i = 0 to a.len - 1 do
      let w = a.data.(i) in
      if w <> v && count v w <> count w v then ok := false
    done
  done;
  !ok
