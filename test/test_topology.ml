(* Implicit-topology and word-level-bitset tests.

   The implicit views promise the same graph contract as a materialised
   CSR (symmetry, exact degrees, no self-loops) while computing every
   neighbour from a seed; the word-level bitset paths promise exactly
   the semantics of the bit-at-a-time loops they replaced. Both are
   checked differentially here — against [Topology.to_graph] /
   [Classic.hypercube] on one side and a naive reference on the
   other — plus a pinned broadcast showing the implicit hypercube is
   bit-for-bit the materialised one to the engine. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Classic = Rumor_test_support.Classic
module Topology = Rumor_test_support.Topology
module Bitset = Rumor_test_support.Bitset
module Engine = Rumor_sim.Engine
module Baselines = Rumor_core.Baselines
module Scenario = Rumor_cli.Scenario

(* ------------------------------------------------------------------ *)
(* Implicit views vs the graph contract.                               *)
(* ------------------------------------------------------------------ *)

(* Multiset of v's neighbours under a view, as a sorted list (the views
   may produce parallel edges, so sets would hide miscounts). *)
let adjacency t v =
  List.sort Int.compare
    (List.init (t.Topology.degree v) (t.Topology.neighbor v))

let check_symmetric_no_self name t =
  let n = t.Topology.capacity in
  for v = 0 to n - 1 do
    List.iter
      (fun w ->
        if w = v then
          Alcotest.failf "%s: self-loop at %d (n=%d)" name v n;
        if w < 0 || w >= n then
          Alcotest.failf "%s: neighbour %d of %d out of range" name w v;
        let back =
          List.length (List.filter (fun x -> x = v) (adjacency t w))
        in
        let forth =
          List.length (List.filter (fun x -> x = w) (adjacency t v))
        in
        if back <> forth then
          Alcotest.failf "%s: asymmetric edge %d-%d (%d vs %d)" name v w forth
            back)
      (adjacency t v)
  done

let prop_implicit_regular_contract =
  QCheck.Test.make ~count:60 ~name:"implicit-regular: d-regular, symmetric, no self-loops"
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, d) ->
      let n = 2 * (8 + (seed mod 40)) in
      let t = Topology.implicit_regular ~seed ~n ~d in
      check_symmetric_no_self "implicit-regular" t;
      for v = 0 to n - 1 do
        if t.Topology.degree v <> d then
          Alcotest.failf "degree %d at %d, want %d" (t.Topology.degree v) v d
      done;
      (* The materialisation must carry exactly n*d/2 edge copies: every
         matching contributes n/2, nothing is lost or invented. *)
      let g = Topology.to_graph t in
      Graph.m g = n * d / 2)

let prop_implicit_regular_matches_materialised =
  QCheck.Test.make ~count:40
    ~name:"implicit-regular: view and to_graph agree on every adjacency"
    QCheck.small_int
    (fun seed ->
      let n = 2 * (6 + (seed mod 30)) and d = 4 in
      let t = Topology.implicit_regular ~seed ~n ~d in
      let g = Topology.to_graph t in
      for v = 0 to n - 1 do
        let from_view = adjacency t v in
        let from_graph =
          List.sort Int.compare (Array.to_list (Graph.neighbors g v))
        in
        if from_view <> from_graph then
          Alcotest.failf "adjacency of %d differs (seed %d, n %d)" v seed n
      done;
      true)

let prop_implicit_chords_contract =
  QCheck.Test.make ~count:50 ~name:"implicit-chords: ring + symmetric chords"
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, d) ->
      let n = 2 * (6 + (seed mod 40)) in
      let t = Topology.implicit_chords ~seed ~n ~d in
      check_symmetric_no_self "implicit-chords" t;
      for v = 0 to n - 1 do
        let prev = if v = 0 then n - 1 else v - 1 in
        let next = if v = n - 1 then 0 else v + 1 in
        if t.Topology.neighbor v 0 <> prev || t.Topology.neighbor v 1 <> next
        then Alcotest.failf "ring edges of %d wrong (n=%d)" v n
      done;
      true)

let test_implicit_hypercube_order () =
  (* Stronger than symmetry: neighbour-by-neighbour equality with the
     materialised cube's CSR, in order. This is what makes broadcasts
     over the two representations consume randomness identically. *)
  List.iter
    (fun dim ->
      let n = 1 lsl dim in
      let t = Topology.implicit_hypercube ~n in
      let g = Classic.hypercube dim in
      Alcotest.(check int) "capacity" n t.Topology.capacity;
      for v = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "degree of %d (dim %d)" v dim)
          (Graph.degree g v) (t.Topology.degree v);
        for i = 0 to dim - 1 do
          Alcotest.(check int)
            (Printf.sprintf "neighbor %d of %d (dim %d)" i v dim)
            (Graph.neighbor g v i)
            (t.Topology.neighbor v i)
        done
      done)
    [ 1; 2; 3; 5; 7 ]

let test_implicit_hypercube_broadcast_identical () =
  (* Same seed, same source: the whole engine result must be
     bit-identical between the implicit view and the materialised
     cube — rounds, transmissions, channel count, everything. *)
  let dim = 8 in
  let run topology =
    let rng = Rng.create 77 in
    Engine.run ~rng ~topology
      ~protocol:(Baselines.push_pull ~fanout:1 ~horizon:60 ())
      ~sources:[ 3 ] ()
  in
  let a = run (Topology.implicit_hypercube ~n:(1 lsl dim)) in
  let b = run (Topology.of_graph (Classic.hypercube dim)) in
  Alcotest.(check int) "rounds" b.Engine.rounds a.Engine.rounds;
  Alcotest.(check int) "informed" b.Engine.informed a.Engine.informed;
  Alcotest.(check int) "push tx" b.Engine.push_tx a.Engine.push_tx;
  Alcotest.(check int) "pull tx" b.Engine.pull_tx a.Engine.pull_tx;
  Alcotest.(check int) "channels" b.Engine.channels a.Engine.channels;
  Alcotest.(check (option int))
    "completion round" b.Engine.completion_round a.Engine.completion_round

let test_implicit_validation () =
  List.iter
    (fun f -> try ignore (f ()); Alcotest.fail "no exception" with
      | Invalid_argument _ -> ())
    [
      (fun () -> Topology.implicit_regular ~seed:1 ~n:9 ~d:3);
      (fun () -> Topology.implicit_regular ~seed:1 ~n:0 ~d:3);
      (fun () -> Topology.implicit_regular ~seed:1 ~n:8 ~d:0);
      (fun () -> Topology.implicit_chords ~seed:1 ~n:2 ~d:2);
      (fun () -> Topology.implicit_chords ~seed:1 ~n:9 ~d:4);
      (fun () -> Topology.implicit_hypercube ~n:1);
      (* Round-table entries are 16 bits, so the domain stops at 2^32. *)
      (fun () -> Topology.implicit_regular ~seed:1 ~n:((1 lsl 32) + 2) ~d:3);
      (fun () -> Topology.implicit_chords ~seed:1 ~n:((1 lsl 32) + 2) ~d:4);
    ];
  (* The largest domain still answers, without a fixed point. *)
  let big = Topology.implicit_regular ~seed:1 ~n:(1 lsl 32) ~d:2 in
  List.iter
    (fun v ->
      let w = big.Topology.neighbor v 1 in
      Alcotest.(check bool) "2^32 partner in range" true
        (w >= 0 && w < 1 lsl 32 && w <> v);
      Alcotest.(check int) "2^32 involution" v (big.Topology.neighbor w 1))
    [ 0; (1 lsl 32) - 1; 123456789 ];
  let views =
    [
      ("regular", Topology.implicit_regular ~seed:3 ~n:64 ~d:4, 4);
      ("chords", Topology.implicit_chords ~seed:3 ~n:64 ~d:5, 5);
      ("chords ring only", Topology.implicit_chords ~seed:3 ~n:64 ~d:2, 2);
    ]
  in
  List.iter
    (fun (name, t, d) ->
      List.iter
        (fun i ->
          match t.Topology.neighbor 5 i with
          | w -> Alcotest.failf "%s neighbor 5 %d = %d, not raised" name i w
          | exception Invalid_argument _ -> ())
        [ d; d + 1; -1; min_int ])
    views;
  (* Out-of-range neighbour indices raise on every view, the hypercube
     included (it once answered -1). *)
  let cube = Topology.implicit_hypercube ~n:16 in
  List.iter
    (fun (v, i) ->
      match cube.Topology.neighbor v i with
      | w -> Alcotest.failf "hypercube neighbor %d %d = %d, not raised" v i w
      | exception Invalid_argument _ -> ())
    [ (0, 4); (15, 4); (5, 7); (5, -1) ]

(* ------------------------------------------------------------------ *)
(* Tabulated matchings vs the per-round-hash Feistel they replace.     *)
(* ------------------------------------------------------------------ *)

(* The reference Feistel: four rounds of [L, R -> R, L lxor F_i(R)],
   hashing R with splitmix's finalizer in every round and masking to
   L's width. L starts at ⌈bits/2⌉ bits and R at ⌊bits/2⌋, and each
   round swaps the widths; with [bits] even both are [bits/2], the
   balanced Feistel whose graphs every even-bit pin was recorded on.
   The key schedule and salts are the views' own, so a drift in either
   shows here too. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x2B2F159E4BC5AB1D in
  x lxor (x lsr 31)

let round_f ~key i r width =
  mix (r lxor key lxor (i * 0x9E3779B97F4A7C)) land ((1 lsl width) - 1)

let oracle_enc ~key ~bits x =
  let wl = ref (bits - (bits / 2)) and wr = ref (bits / 2) in
  let l = ref (x lsr !wr) and r = ref (x land ((1 lsl !wr) - 1)) in
  for i = 0 to 3 do
    let l' = !r and r' = !l lxor round_f ~key i !r !wl in
    l := l';
    r := r';
    let w = !wl in
    wl := !wr;
    wr := w
  done;
  (!l lsl !wr) lor !r

let oracle_dec ~key ~bits x =
  let wl = ref (bits - (bits / 2)) and wr = ref (bits / 2) in
  let l = ref (x lsr !wr) and r = ref (x land ((1 lsl !wr) - 1)) in
  for i = 3 downto 0 do
    let r' = !l and l' = !r lxor round_f ~key i !l !wr in
    l := l';
    r := r';
    let w = !wl in
    wl := !wr;
    wr := w
  done;
  (!l lsl !wr) lor !r

let rec oracle_walk f ~n x =
  let y = f x in
  if y < n then y else oracle_walk f ~n y

let oracle_partner ~key ~bits ~n v =
  let p = oracle_walk (oracle_enc ~key ~bits) ~n v in
  oracle_walk (oracle_dec ~key ~bits) ~n (p lxor 1)

let oracle_keys ~salt ~seed d =
  Array.init d (fun j -> mix (mix (seed lxor salt) + ((j + 1) * 0x3C79AC492BA7B653)))

(* Two even n per bit count: the power of two (the walk never repeats)
   and the smallest even n that needs [bits] bits (ratio just under 2).
   Nodes: both ends of the range and a spread of pseudo-random ones. *)
let sizes_for bits =
  List.sort_uniq Int.compare [ 1 lsl bits; (1 lsl (bits - 1)) + 2 ]

let sample_nodes ~n =
  let x = ref (n * 0x9E3779B9) in
  0 :: (n - 1)
  :: List.init 64 (fun _ ->
         x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
         (!x lsr 17) mod n)

let check_against_oracle ~bits =
  List.iter
    (fun n ->
      if not (1 lsl bits >= n && 1 lsl bits < 2 * n) then
        Alcotest.failf "n = %d does not need %d bits" n bits;
      let seed = 7 * bits and d = 3 in
      let reg = Topology.implicit_regular ~seed ~n ~d in
      let chords = Topology.implicit_chords ~seed ~n ~d:(d + 2) in
      let reg_keys = oracle_keys ~salt:0x51ED2701 ~seed d in
      let chord_keys = oracle_keys ~salt:0x3C6EF372 ~seed d in
      List.iter
        (fun v ->
          for i = 0 to d - 1 do
            let want = oracle_partner ~key:reg_keys.(i) ~bits ~n v in
            let got = reg.Topology.neighbor v i in
            if got <> want then
              Alcotest.failf "regular n=%d v=%d i=%d: %d, oracle %d" n v i got
                want;
            let want = oracle_partner ~key:chord_keys.(i) ~bits ~n v in
            let got = chords.Topology.neighbor v (i + 2) in
            if got <> want then
              Alcotest.failf "chords n=%d v=%d i=%d: %d, oracle %d" n v i got
                want
          done)
        (sample_nodes ~n))
    (sizes_for bits)

let test_tables_match_oracle_even () =
  for k = 1 to 12 do
    check_against_oracle ~bits:(2 * k)
  done

(* At odd bit counts the halves are unbalanced. Besides the oracle,
   check the matching laws directly: partners are in range, never the
   node itself, and partnering twice returns the node. *)
let test_tables_odd_bits () =
  for k = 1 to 11 do
    let bits = (2 * k) + 1 in
    check_against_oracle ~bits;
    List.iter
      (fun n ->
        let t = Topology.implicit_regular ~seed:bits ~n ~d:4 in
        List.iter
          (fun v ->
            for i = 0 to 3 do
              let w = t.Topology.neighbor v i in
              if w < 0 || w >= n || w = v then
                Alcotest.failf "n=%d: neighbor %d %d = %d" n v i w;
              let back = t.Topology.neighbor w i in
              if back <> v then
                Alcotest.failf "n=%d: matching %d not an involution at %d" n i
                  v
            done)
          (sample_nodes ~n))
      (sizes_for bits)
  done

(* Views fill their round tables on the first query. Two domains that
   make that query on one fresh view at the same moment must both see
   the partners a view used from one domain gives. At n = 2^20 + 2 the
   tables take a few hundred µs to fill; the second domain starts a
   little later in each trial, so its first call lands at different
   points of the first domain's fill. *)
let test_shared_view_first_calls () =
  let n = (1 lsl 20) + 2 and d = 8 in
  let all_partners t =
    Array.init (4096 * d) (fun k -> t.Topology.neighbor (k / d) (k mod d))
  in
  for seed = 1 to 40 do
    let want = all_partners (Topology.implicit_regular ~seed ~n ~d) in
    let shared = Topology.implicit_regular ~seed ~n ~d in
    let ready = Atomic.make 0 in
    let worker delay () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      for _ = 1 to delay do
        Domain.cpu_relax ()
      done;
      all_partners shared
    in
    let a = Domain.spawn (worker 0)
    and b = Domain.spawn (worker ((seed - 1) * 250)) in
    let got_a = Domain.join a and got_b = Domain.join b in
    if got_a <> want || got_b <> want then
      Alcotest.failf "seed %d: a racing domain saw different partners" seed
  done

(* ------------------------------------------------------------------ *)
(* Scenario integration: caps and rejections.                          *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_scenario_guards () =
  let rng = Rng.create 1 in
  (try
     ignore
       (Scenario.make_graph ~rng ~topology:"regular"
          ~n:(Scenario.materialise_cap + 1) ~d:8);
     Alcotest.fail "over-cap materialisation accepted"
   with Failure msg ->
     Alcotest.(check bool)
       "cap error names the implicit alternatives" true
       (contains ~sub:"implicit-regular" msg));
  (try
     ignore (Scenario.make_graph ~rng ~topology:"implicit-regular" ~n:64 ~d:4);
     Alcotest.fail "implicit materialisation accepted"
   with Failure _ -> ());
  (match Scenario.parse "topology = implicit-regular\njoin_prob = 0.1\n" with
  | Ok _ -> Alcotest.fail "implicit + churn accepted"
  | Error _ -> ());
  (match Scenario.parse "topology = implicit-regular\nn = 4097\n" with
  | Ok _ -> Alcotest.fail "odd n accepted for implicit-regular"
  | Error _ -> ());
  (* Past the round tables' 2^32 nodes: a parse error, not an uncaught
     Invalid_argument from the view. *)
  List.iter
    (fun topology ->
      match
        Scenario.parse
          (Printf.sprintf "topology = %s\nn = 8589934592\nd = 4\n" topology)
      with
      | Ok _ -> Alcotest.failf "%s accepted n = 2^33" topology
      | Error msg ->
          Alcotest.(check bool) "error names the limit" true
            (contains ~sub:"2^32" msg))
    [ "implicit-regular"; "implicit-chords" ];
  match Scenario.parse "topology = implicit-chords\nn = 4096\nd = 6\n" with
  | Ok s ->
      let t =
        Scenario.make_topology ~rng ~topology:s.Scenario.topology
          ~n:s.Scenario.n ~d:s.Scenario.d
      in
      Alcotest.(check int) "chords capacity" 4096 t.Topology.capacity
  | Error e -> Alcotest.failf "valid implicit scenario rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Word-level bitset vs a bit-at-a-time reference.                     *)
(* ------------------------------------------------------------------ *)

let ref_cardinal t =
  let c = ref 0 in
  for i = 0 to Bitset.length t - 1 do
    if Bitset.get t i then incr c
  done;
  !c

let ref_members t =
  List.filter (Bitset.get t) (List.init (Bitset.length t) Fun.id)

let ref_next_set t i =
  let n = Bitset.length t in
  let rec go j = if j >= n then -1 else if Bitset.get t j then j else go (j + 1) in
  go i

(* Random lengths straddle word boundaries on purpose: len mod 64 = 0,
   1, 63 all appear, so the padding-word masking is exercised. *)
let prop_bitset_word_ops =
  QCheck.Test.make ~count:200 ~name:"bitset word ops match bit-at-a-time reference"
    QCheck.(pair small_int (int_range 0 200))
    (fun (seed, len) ->
      let rng = Rng.create (1 + seed) in
      let t = Bitset.create len in
      (* Churn bits, including re-clears, to dirty then re-zero padding
         neighbourhoods. *)
      for _ = 1 to 3 * (len + 1) do
        if len > 0 then begin
          let i = Rng.int rng len in
          if Rng.bool rng then Bitset.set t i else Bitset.clear t i
        end
      done;
      let ok_cardinal = Bitset.cardinal t = ref_cardinal t in
      let collected = ref [] in
      Bitset.iter_set t (fun i -> collected := i :: !collected);
      let ok_iter = List.rev !collected = ref_members t in
      let ok_next =
        List.for_all
          (fun i -> Bitset.next_set t i = ref_next_set t i)
          (List.init (len + 2) Fun.id)
      in
      ok_cardinal && ok_iter && ok_next)

let test_bitset_bounds () =
  let t = Bitset.create 131 in
  (* Indices in [len, words*64) land inside the byte buffer but outside
     the set — exactly the ones a missing bounds check would accept. *)
  List.iter
    (fun i ->
      List.iter
        (fun (name, f) ->
          try
            f i;
            Alcotest.failf "Bitset.%s accepted index %d (len 131)" name i
          with Invalid_argument _ -> ())
        [
          ("get", fun i -> ignore (Bitset.get t i));
          ("set", fun i -> Bitset.set t i);
          ("clear", fun i -> Bitset.clear t i);
          ("assign", fun i -> Bitset.assign t i true);
        ])
    [ -1; 131; 135; 191 ];
  (try ignore (Bitset.next_set t (-1)); Alcotest.fail "next_set accepted -1"
   with Invalid_argument _ -> ());
  (* In-range extremes still work, and next_set saturates cleanly. *)
  Bitset.set t 130;
  Alcotest.(check bool) "get 130" true (Bitset.get t 130);
  Alcotest.(check int) "next_set from 131" (-1) (Bitset.next_set t 131);
  Alcotest.(check int) "next_set finds 130" 130 (Bitset.next_set t 99);
  Alcotest.(check int) "cardinal" 1 (Bitset.cardinal t)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_implicit_regular_contract;
      prop_implicit_regular_matches_materialised;
      prop_implicit_chords_contract;
      prop_bitset_word_ops;
    ]

let () =
  Alcotest.run "topology-implicit"
    [
      ( "implicit",
        qcheck_cases
        @ [
            Alcotest.test_case "hypercube CSR neighbour order" `Quick
              test_implicit_hypercube_order;
            Alcotest.test_case "hypercube broadcast bit-identical" `Quick
              test_implicit_hypercube_broadcast_identical;
            Alcotest.test_case "implicit parameter validation" `Quick
              test_implicit_validation;
            Alcotest.test_case "round tables = Feistel oracle, even bits"
              `Quick test_tables_match_oracle_even;
            Alcotest.test_case "round tables at odd bits" `Quick
              test_tables_odd_bits;
            Alcotest.test_case "shared view, racing first calls" `Quick
              test_shared_view_first_calls;
            Alcotest.test_case "scenario caps and rejections" `Quick
              test_scenario_guards;
            Alcotest.test_case "bitset bounds checks" `Quick test_bitset_bounds;
          ] );
    ]
