module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Builder = Rumor_graph.Builder

(* Stubs are vertex ids stored in 4 bytes each: half the footprint of
   an [int array], and a swap is two plain stores with no write
   barrier. Signed 32-bit cells hold ids up to [2^31 - 1]. *)
external get_stub : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set_stub : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let max_vertices = 1 lsl 31

let pair ~rng ~deg =
  let n = Array.length deg in
  let total = Array.fold_left ( + ) 0 deg in
  Array.iter (fun d -> if d < 0 then invalid_arg "Config_model.pair: negative degree") deg;
  if total mod 2 <> 0 then invalid_arg "Config_model.pair: odd degree sum";
  if n > max_vertices then invalid_arg "Config_model.pair: vertex ids exceed 31 bits";
  (* Stub i is owned by the vertex stored at byte 4i; a uniform shuffle
     then pairing of consecutive stubs is exactly a uniform perfect
     matching. *)
  let stubs = Bytes.create (4 * total) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    let id = Int32.of_int v in
    for _ = 1 to deg.(v) do
      set_stub stubs (4 * !k) id;
      incr k
    done
  done;
  (* Fisher–Yates with [Rng.shuffle]'s draws: one [Rng.int] per
     position, the last one included, so the stream advances exactly
     as it would over an [int array]. *)
  for i = 0 to total - 1 do
    let j = i + Rng.int rng (total - i) in
    let s = get_stub stubs (4 * i) in
    set_stub stubs (4 * i) (get_stub stubs (4 * j));
    set_stub stubs (4 * j) s
  done;
  (* CSR straight from the pairs, in edge order (the order an edge-list
     build would give). [off.(v + 1)] starts at v's first slot and is
     v's write cursor; the scatter advances it to v's last slot + 1,
     which is its final value, so no cursor copy is needed. *)
  let off = Array.make (n + 1) 0 in
  for v = 1 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v - 1)
  done;
  let adj = Array.make total 0 in
  for e = 0 to (total / 2) - 1 do
    let u = Int32.to_int (get_stub stubs (8 * e)) in
    let w = Int32.to_int (get_stub stubs ((8 * e) + 4)) in
    let cu = off.(u + 1) in
    adj.(cu) <- w;
    off.(u + 1) <- cu + 1;
    let cw = off.(w + 1) in
    adj.(cw) <- u;
    off.(w + 1) <- cw + 1
  done;
  Graph.create ~n ~off ~adj

let pair_simple ~rng ~deg ~max_attempts =
  let rec go attempts =
    if attempts <= 0 then None
    else begin
      let g = pair ~rng ~deg in
      if Graph.is_simple g then Some g else go (attempts - 1)
    end
  in
  go max_attempts

let erase g =
  let n = Graph.n g in
  let b = Builder.create ~capacity:(max (Graph.m g) 1) ~n () in
  (* Collapse parallel edges with a per-vertex sorted scan. *)
  for v = 0 to n - 1 do
    let nbrs = Graph.neighbors g v in
    (* Monomorphic comparison: the polymorphic [compare] walks the
       generic structural path on every element pair. *)
    Array.sort Int.compare nbrs;
    let prev = ref (-1) in
    Array.iter
      (fun w ->
        if w > v && w <> !prev then begin
          Builder.add_edge b v w;
          prev := w
        end
        else if w > v then prev := w)
      nbrs
  done;
  Builder.build b
