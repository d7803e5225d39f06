module Graph = Rumor_graph.Graph

type t = {
  capacity : int;
  degree : int -> int;
  neighbor : int -> int -> int;
  alive : int -> bool;
  live_count : (unit -> int) option;
}

let of_graph g =
  {
    capacity = Graph.n g;
    degree = Graph.degree g;
    neighbor = Graph.neighbor g;
    alive = (fun _ -> true);
    live_count = Some (fun () -> Graph.n g);
  }

let alive_count t =
  match t.live_count with
  | Some f -> f ()
  | None ->
      let count = ref 0 in
      for v = 0 to t.capacity - 1 do
        if t.alive v then incr count
      done;
      !count

(* --- implicit views: neighbours computed from a seed, no CSR ---

   A materialised configuration-model graph caps practical runs near
   n = 2^20 (stub arrays, shuffles, CSR). The views below keep only
   O(d) words of state plus small per-view round tables, and answer
   [degree]/[neighbor] in O(1)-ish time, so the same kernel drives
   n = 10^7..10^8 networks.

   The random-regular and chord views are unions of seed-derived
   perfect matchings. Each matching is defined by a keyed Feistel
   permutation [P] of [0, n): node [v] sits at position [P v], position
   [p] is paired with [p lxor 1], and the partner is read back through
   the inverse permutation. Symmetry (w ∈ N(v) ⇔ v ∈ N(w)) and
   freedom from self-loops hold by construction — a pairing is an
   involution with no fixed point — rather than by audit. All
   arithmetic is on untagged native ints: no allocation per call. *)

(* splitmix64-style finalizer truncated to OCaml's 63-bit native int.
   The multipliers are odd 62-bit constants, so the low bits mix just
   like the 64-bit original; only the (unused) top bit differs. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x2B2F159E4BC5AB1D in
  x lxor (x lsr 31)

(* Smallest [k] with [2^k >= n]. *)
let ceil_log2 n =
  let k = ref 0 in
  while 1 lsl !k < n do
    incr k
  done;
  !k

(* The permutation of [0, 2^bits), bits = ⌈log₂ n⌉, splits a word into
   a high half [a] of ⌈bits/2⌉ bits and a low half [b] of ⌊bits/2⌋
   bits, and runs four Feistel rounds that alternate which half they
   update:

     a ^= F0 b;  b ^= F1 a;  a ^= F2 b;  b ^= F3 a

   where [F_i r = mix (r lxor key lxor (i * round_constant))] masked
   to the width of the half it updates. Each round swaps the widths of
   the [L, R -> R, L lxor F(R)] form, so four rounds restore them; with
   [bits] even the halves are balanced. [F_i] reads at most 16 bits, so
   it is a table: for each key, four blocks of 16-bit entries — [F0]
   and [F2] over [2^lo] inputs, [F1] and [F3] over [2^hi] — stored
   key-major in one [Bytes]. *)
type matchings = {
  n : int;
  lo : int;  (** width of the low half, ⌊bits/2⌋ *)
  hi : int;  (** width of the high half, ⌈bits/2⌉ *)
  keys : int array;
  tables : Bytes.t Atomic.t;  (** [Bytes.empty] until the first query *)
}

let round_constant = 0x9E3779B97F4A7C

let matchings ~who ~salt ~seed ~n d =
  if n > 1 lsl 32 then invalid_arg (who ^ ": n > 2^32 (16-bit round tables)");
  let bits = ceil_log2 n in
  {
    n;
    lo = bits / 2;
    hi = bits - (bits / 2);
    keys =
      Array.init d (fun j ->
          mix (mix (seed lxor salt) + ((j + 1) * 0x3C79AC492BA7B653)));
    tables = Atomic.make Bytes.empty;
  }

(* Built on the first query rather than with the view, so building a
   view stays a key schedule. Domains that race here build identical
   bytes, and [Atomic.set] publishes them fully written, so whichever
   copy a reader sees is the same table. *)
let build_tables m =
  let lo_len = 1 lsl m.lo and hi_len = 1 lsl m.hi in
  let tb = Bytes.create (4 * (lo_len + hi_len) * Array.length m.keys) in
  let pos = ref 0 in
  Array.iter
    (fun key ->
      for i = 0 to 3 do
        (* Even rounds read the low half and update the high one. *)
        let len, mask =
          if i land 1 = 0 then (lo_len, hi_len - 1) else (hi_len, lo_len - 1)
        in
        for r = 0 to len - 1 do
          Bytes.set_uint16_le tb !pos
            (mix (r lxor key lxor (i * round_constant)) land mask);
          pos := !pos + 2
        done
      done)
    m.keys;
  Atomic.set m.tables tb;
  tb

(* One key's blocks start at byte [k0]; [lb] and [hb] are the byte
   sizes of a low-indexed and a high-indexed block. *)
let encrypt tb k0 lb hb lo x =
  let k1 = k0 + lb in
  let k2 = k1 + hb in
  let k3 = k2 + lb in
  let a = x lsr lo and b = x land ((1 lsl lo) - 1) in
  let a = a lxor Bytes.get_uint16_le tb (k0 + (b lsl 1)) in
  let b = b lxor Bytes.get_uint16_le tb (k1 + (a lsl 1)) in
  let a = a lxor Bytes.get_uint16_le tb (k2 + (b lsl 1)) in
  let b = b lxor Bytes.get_uint16_le tb (k3 + (a lsl 1)) in
  (a lsl lo) lor b

let decrypt tb k0 lb hb lo x =
  let k1 = k0 + lb in
  let k2 = k1 + hb in
  let k3 = k2 + lb in
  let a = x lsr lo and b = x land ((1 lsl lo) - 1) in
  let b = b lxor Bytes.get_uint16_le tb (k3 + (a lsl 1)) in
  let a = a lxor Bytes.get_uint16_le tb (k2 + (b lsl 1)) in
  let b = b lxor Bytes.get_uint16_le tb (k1 + (a lsl 1)) in
  let a = a lxor Bytes.get_uint16_le tb (k0 + (b lsl 1)) in
  (a lsl lo) lor b

(* Cycle-walking restricts the permutation to [0, n): iterate until the
   image lands back inside the domain. Expected iterations are
   2^bits / n < 2, and termination is guaranteed because the cycle of
   [x] under the full permutation re-enters [0, n) at [x] itself. *)
let rec walk_enc tb k0 lb hb lo n x =
  let y = encrypt tb k0 lb hb lo x in
  if y < n then y else walk_enc tb k0 lb hb lo n y

let rec walk_dec tb k0 lb hb lo n x =
  let y = decrypt tb k0 lb hb lo x in
  if y < n then y else walk_dec tb k0 lb hb lo n y

(* Partner of [v] in matching [j]: position [p] pairs with [p lxor 1].
   With [n] even both positions are in range, so the partner is total,
   never [v] itself, and partnering twice returns [v]. *)
let partner m j v =
  if j < 0 || j >= Array.length m.keys then
    invalid_arg "Topology: neighbor index";
  let tb = Atomic.get m.tables in
  let tb = if Bytes.length tb = 0 then build_tables m else tb in
  let lb = 2 lsl m.lo and hb = 2 lsl m.hi in
  let k0 = j * 2 * (lb + hb) in
  let p = walk_enc tb k0 lb hb m.lo m.n v in
  walk_dec tb k0 lb hb m.lo m.n (p lxor 1)

let implicit_regular ~seed ~n ~d =
  if n < 2 then invalid_arg "Topology.implicit_regular: n < 2";
  if n land 1 = 1 then
    invalid_arg "Topology.implicit_regular: n must be even (perfect matchings)";
  if d < 1 then invalid_arg "Topology.implicit_regular: d < 1";
  let m =
    matchings ~who:"Topology.implicit_regular" ~salt:0x51ED2701 ~seed ~n d
  in
  {
    capacity = n;
    degree = (fun _ -> d);
    neighbor = (fun v i -> partner m i v);
    alive = (fun _ -> true);
    live_count = Some (fun () -> n);
  }

(* The [k]-cube on [2^k] ids. Neighbours are listed in ascending id
   order — exactly the CSR order [Rumor_gen.Classic.hypercube] builds
   (edges inserted by (min endpoint, bit) give each vertex its
   smaller-id neighbours first, both blocks ascending) — so a broadcast
   over this view is bit-identical to one over the materialised cube. *)
let implicit_hypercube ~n =
  if n < 2 then invalid_arg "Topology.implicit_hypercube: n < 2";
  let dim = ceil_log2 n in
  if dim > 25 then invalid_arg "Topology.implicit_hypercube: n > 2^25";
  let cap = 1 lsl dim in
  let neighbor v i =
    (* i-th smallest of { v lxor (1 lsl b) }: clearing set bits from
       the top yields the ascending below-v block, then setting clear
       bits from the bottom yields the ascending above-v block. *)
    let result = ref (-1) in
    let seen = ref 0 in
    let b = ref (dim - 1) in
    while !result < 0 && !b >= 0 do
      if v land (1 lsl !b) <> 0 then begin
        if !seen = i then result := v lxor (1 lsl !b);
        incr seen
      end;
      decr b
    done;
    let b = ref 0 in
    while !result < 0 && !b < dim do
      if v land (1 lsl !b) = 0 then begin
        if !seen = i then result := v lor (1 lsl !b);
        incr seen
      end;
      incr b
    done;
    (* Only an [i] outside [0, dim) finds nothing. *)
    if !result < 0 then invalid_arg "Topology.implicit_hypercube: neighbor index";
    !result
  in
  {
    capacity = cap;
    degree = (fun _ -> dim);
    neighbor;
    alive = (fun _ -> true);
    live_count = Some (fun () -> cap);
  }

let implicit_chords ~seed ~n ~d =
  if n < 3 then invalid_arg "Topology.implicit_chords: n < 3";
  if d < 2 then invalid_arg "Topology.implicit_chords: d < 2";
  let chords = d - 2 in
  if chords > 0 && n land 1 = 1 then
    invalid_arg "Topology.implicit_chords: n must be even when d > 2";
  let m =
    matchings ~who:"Topology.implicit_chords" ~salt:0x3C6EF372 ~seed ~n chords
  in
  let neighbor v i =
    if i = 0 then if v = 0 then n - 1 else v - 1
    else if i = 1 then if v = n - 1 then 0 else v + 1
    else partner m (i - 2) v
  in
  {
    capacity = n;
    degree = (fun _ -> 2 + chords);
    neighbor;
    alive = (fun _ -> true);
    live_count = Some (fun () -> n);
  }
