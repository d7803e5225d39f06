module Builder = Rumor_graph.Builder

let complete n =
  let b = Builder.create ~capacity:(max (n * (n - 1) / 2) 1) ~n () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Builder.add_edge b u v
    done
  done;
  Builder.build b

let hypercube k =
  if k < 0 || k > 25 then invalid_arg "Classic.hypercube: k out of range";
  let n = 1 lsl k in
  let b = Builder.create ~capacity:(max (n * k / 2) 1) ~n () in
  for v = 0 to n - 1 do
    for bit = 0 to k - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then Builder.add_edge b v w
    done
  done;
  Builder.build b

let torus2d rows cols =
  if rows < 3 || cols < 3 then invalid_arg "Classic.torus2d: side < 3";
  let n = rows * cols in
  let id r c = (r * cols) + c in
  let b = Builder.create ~capacity:(2 * n) ~n () in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Builder.add_edge b (id r c) (id r ((c + 1) mod cols));
      Builder.add_edge b (id r c) (id ((r + 1) mod rows) c)
    done
  done;
  Builder.build b
