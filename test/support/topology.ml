module Builder = Rumor_graph.Builder
include Rumor_sim.Topology

let to_graph t =
  let b = Builder.create ~capacity:(max t.capacity 1) ~n:t.capacity () in
  for v = 0 to t.capacity - 1 do
    if t.alive v then begin
      let d = t.degree v in
      for i = 0 to d - 1 do
        let w = t.neighbor v i in
        (* A symmetric view lists every edge from both endpoints; keep
           the copy seen from the smaller id (all copies, for
           multi-edges). *)
        if v < w then Builder.add_edge b v w
      done
    end
  done;
  Builder.build b
