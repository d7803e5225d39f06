type t = {
  n : int;
  mutable us : int array;
  mutable vs : int array;
  mutable len : int;
}

let create ?(capacity = 64) ~n () =
  if n < 0 then invalid_arg "Builder.create: n < 0";
  let capacity = max capacity 1 in
  { n; us = Array.make capacity 0; vs = Array.make capacity 0; len = 0 }

let grow b =
  let cap = Array.length b.us in
  let us = Array.make (2 * cap) 0 and vs = Array.make (2 * cap) 0 in
  Array.blit b.us 0 us 0 b.len;
  Array.blit b.vs 0 vs 0 b.len;
  b.us <- us;
  b.vs <- vs

let add_edge b u v =
  if u < 0 || u >= b.n || v < 0 || v >= b.n then
    invalid_arg "Builder.add_edge: endpoint range";
  if b.len = Array.length b.us then grow b;
  b.us.(b.len) <- u;
  b.vs.(b.len) <- v;
  b.len <- b.len + 1

let build b =
  let deg = Array.make b.n 0 in
  for i = 0 to b.len - 1 do
    deg.(b.us.(i)) <- deg.(b.us.(i)) + 1;
    deg.(b.vs.(i)) <- deg.(b.vs.(i)) + 1
  done;
  let off = Array.make (b.n + 1) 0 in
  for i = 0 to b.n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let adj = Array.make off.(b.n) 0 in
  let cursor = Array.copy off in
  for i = 0 to b.len - 1 do
    let u = b.us.(i) and v = b.vs.(i) in
    adj.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    adj.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  done;
  Graph.create ~n:b.n ~off ~adj
