module Builder = Rumor_graph.Builder
module Rng = Rumor_rng.Rng
include Rumor_gen.Gnp

let sample_gnm ~rng ~n ~m =
  let total = n * (n - 1) / 2 in
  if m < 0 || m > total then invalid_arg "Gnp.sample_gnm: m out of range";
  let seen = Hashtbl.create (2 * max m 1) in
  let b = Builder.create ~capacity:(max m 1) ~n () in
  let added = ref 0 in
  while !added < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = (min u v * n) + max u v in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Builder.add_edge b u v;
        incr added
      end
    end
  done;
  Builder.build b
