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
   O(d) words of state and answer [degree]/[neighbor] in O(1)-ish
   time, so the same kernel drives n = 10^7..10^8 networks.

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

(* A Feistel permutation of [0, 2^bits) with [bits] even: four rounds
   of [L, R -> R, L lxor F(R)] on half-words, keyed by [key]. *)
let feistel_rounds = 4

let feistel_enc ~key ~half ~hmask x =
  let l = ref (x lsr half) and r = ref (x land hmask) in
  for i = 0 to feistel_rounds - 1 do
    let l' = !r in
    let r' = !l lxor (mix (!r lxor key lxor (i * 0x9E3779B97F4A7C)) land hmask) in
    l := l';
    r := r'
  done;
  (!l lsl half) lor !r

let feistel_dec ~key ~half ~hmask x =
  let l = ref (x lsr half) and r = ref (x land hmask) in
  for i = feistel_rounds - 1 downto 0 do
    let r' = !l in
    let l' = !r lxor (mix (!l lxor key lxor (i * 0x9E3779B97F4A7C)) land hmask) in
    l := l';
    r := r'
  done;
  (!l lsl half) lor !r

(* Cycle-walking restricts the permutation to [0, n): iterate until the
   image lands back inside the domain. Expected iterations are
   2^bits / n < 4, and termination is guaranteed because the cycle of
   [x] under the full permutation re-enters [0, n) at [x] itself. *)
let rec walk_enc ~key ~half ~hmask ~n x =
  let y = feistel_enc ~key ~half ~hmask x in
  if y < n then y else walk_enc ~key ~half ~hmask ~n y

let rec walk_dec ~key ~half ~hmask ~n x =
  let y = feistel_dec ~key ~half ~hmask x in
  if y < n then y else walk_dec ~key ~half ~hmask ~n y

(* Smallest even [bits] with [2^bits >= n], so the Feistel halves are
   balanced. *)
let even_bits n =
  let b = ref 2 in
  while 1 lsl !b < n do
    b := !b + 2
  done;
  !b

(* Partner of [v] in the matching keyed by [key]: position [p] pairs
   with [p lxor 1]. With [n] even both positions are in range, so the
   partner is total, never [v] itself, and partnering twice returns
   [v]. *)
let matching_partner ~key ~half ~hmask ~n v =
  let p = walk_enc ~key ~half ~hmask ~n v in
  walk_dec ~key ~half ~hmask ~n (p lxor 1)

let matching_keys ~salt ~seed d =
  Array.init d (fun j -> mix (mix (seed lxor salt) + (j + 1) * 0x3C79AC492BA7B653))

let implicit_regular ~seed ~n ~d =
  if n < 2 then invalid_arg "Topology.implicit_regular: n < 2";
  if n land 1 = 1 then
    invalid_arg "Topology.implicit_regular: n must be even (perfect matchings)";
  if d < 1 then invalid_arg "Topology.implicit_regular: d < 1";
  let bits = even_bits n in
  let half = bits / 2 in
  let hmask = (1 lsl half) - 1 in
  let keys = matching_keys ~salt:0x51ED2701 ~seed d in
  {
    capacity = n;
    degree = (fun _ -> d);
    neighbor =
      (fun v i -> matching_partner ~key:keys.(i) ~half ~hmask ~n v);
    alive = (fun _ -> true);
    live_count = Some (fun () -> n);
  }

(* The [k]-cube on [2^k] ids. Neighbours are listed in ascending id
   order — exactly the CSR order [Rumor_gen.Classic.hypercube] builds
   (edges inserted by (min endpoint, bit) give each vertex its
   smaller-id neighbours first, both blocks ascending) — so a broadcast
   over this view is bit-identical to one over the materialised cube. *)
let hypercube_dim n =
  let k = ref 0 in
  while 1 lsl !k < n do
    incr k
  done;
  !k

let implicit_hypercube ~n =
  if n < 2 then invalid_arg "Topology.implicit_hypercube: n < 2";
  let dim = hypercube_dim n in
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
  let bits = even_bits n in
  let half = bits / 2 in
  let hmask = (1 lsl half) - 1 in
  let keys = matching_keys ~salt:0x3C6EF372 ~seed chords in
  let neighbor v i =
    if i = 0 then if v = 0 then n - 1 else v - 1
    else if i = 1 then if v = n - 1 then 0 else v + 1
    else matching_partner ~key:keys.(i - 2) ~half ~hmask ~n v
  in
  {
    capacity = n;
    degree = (fun _ -> 2 + chords);
    neighbor;
    alive = (fun _ -> true);
    live_count = Some (fun () -> n);
  }

let to_graph t =
  let b = Rumor_graph.Builder.create ~capacity:(max t.capacity 1) ~n:t.capacity () in
  for v = 0 to t.capacity - 1 do
    if t.alive v then begin
      let d = t.degree v in
      for i = 0 to d - 1 do
        let w = t.neighbor v i in
        (* A symmetric view lists every edge from both endpoints; keep
           the copy seen from the smaller id (all copies, for
           multi-edges). *)
        if v < w then Rumor_graph.Builder.add_edge b v w
      done
    end
  done;
  Rumor_graph.Builder.build b
