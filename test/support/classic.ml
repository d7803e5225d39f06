module Builder = Rumor_graph.Builder
include Rumor_gen.Classic

let cycle n =
  if n < 3 then invalid_arg "Classic.cycle: n < 3";
  let b = Builder.create ~capacity:n ~n () in
  for v = 0 to n - 1 do
    Builder.add_edge b v ((v + 1) mod n)
  done;
  Builder.build b

let path n =
  let b = Builder.create ~capacity:(max (n - 1) 1) ~n () in
  for v = 0 to n - 2 do
    Builder.add_edge b v (v + 1)
  done;
  Builder.build b

let star n =
  let b = Builder.create ~capacity:(max (n - 1) 1) ~n () in
  for v = 1 to n - 1 do
    Builder.add_edge b 0 v
  done;
  Builder.build b

let circulant n offsets =
  List.iter
    (fun o ->
      if o < 1 || o > n / 2 then invalid_arg "Classic.circulant: offset range")
    offsets;
  let b = Builder.create ~capacity:(n * List.length offsets) ~n () in
  List.iter
    (fun o ->
      if 2 * o = n then
        (* Antipodal offset: each edge would otherwise be added twice. *)
        for v = 0 to (n / 2) - 1 do
          Builder.add_edge b v (v + o)
        done
      else
        for v = 0 to n - 1 do
          Builder.add_edge b v ((v + o) mod n)
        done)
    offsets;
  Builder.build b
