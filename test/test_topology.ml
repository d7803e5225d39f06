(* Implicit-topology and word-level-bitset tests.

   The implicit views promise the same graph contract as a materialised
   CSR (symmetry, exact degrees, no self-loops) while computing every
   neighbour from a seed; the word-level bitset paths promise exactly
   the semantics of the bit-at-a-time loops they replaced. Both are
   checked differentially here — against [Topology.to_graph] /
   [Classic.hypercube] on one side and a naive reference on the
   other — plus a pinned broadcast showing the implicit hypercube is
   bit-for-bit the materialised one to the engine. *)

module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Classic = Rumor_gen.Classic
module Topology = Rumor_sim.Topology
module Bitset = Rumor_sim.Bitset
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
    ];
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
            Alcotest.test_case "scenario caps and rejections" `Quick
              test_scenario_guards;
            Alcotest.test_case "bitset bounds checks" `Quick test_bitset_bounds;
          ] );
    ]
