(* Hot-path regression pins and parallel-replication equivalence.

   The engine's allocation-free rewrite (incremental census, bitsets,
   hoisted decision closures) must not change a single trajectory: every
   result below was recorded from the straightforward
   full-census/bool-array implementation and is pinned bit-for-bit.
   [Experiment.replicate_parallel] must likewise agree element-for-element
   with sequential [replicate] for every domain count. *)

module Rng = Rumor_test_support.Rng
module Bitset = Rumor_test_support.Bitset
module Regular = Rumor_gen.Regular
module Params = Rumor_core.Params
module Algorithm = Rumor_core.Algorithm
module Run = Rumor_core.Run
module Engine = Rumor_sim.Engine
module Topology = Rumor_test_support.Topology
module Fault = Rumor_sim.Fault
module Multi = Rumor_sim.Multi
module Async = Rumor_sim.Async
module Repair = Rumor_test_support.Repair
module Experiment = Rumor_test_support.Experiment

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 77 in
  Alcotest.(check int) "length" 77 (Bitset.length b);
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 7;
  Bitset.set b 8;
  Bitset.set b 76;
  Alcotest.(check bool) "get set bit" true (Bitset.get b 8);
  Alcotest.(check bool) "get clear bit" false (Bitset.get b 9);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Bitset.clear b 7;
  Alcotest.(check bool) "cleared" false (Bitset.get b 7);
  Bitset.assign b 7 true;
  Bitset.assign b 0 false;
  Alcotest.(check bool) "assign true" true (Bitset.get b 7);
  Alcotest.(check bool) "assign false" false (Bitset.get b 0);
  let arr = Bitset.to_bool_array b in
  Alcotest.(check int) "array length" 77 (Array.length arr);
  Alcotest.(check bool) "array contents" true (arr.(7) && arr.(8) && arr.(76));
  Bitset.reset b;
  Alcotest.(check int) "reset" 0 (Bitset.cardinal b)

(* Model check against a plain bool array under a random op sequence. *)
let test_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with bool array"
    ~count:200
    QCheck.(pair (int_range 1 200) (list (pair (int_range 0 1000) bool)))
    (fun (len, ops) ->
      let b = Bitset.create len in
      let model = Array.make len false in
      List.iter
        (fun (i, v) ->
          let i = i mod len in
          Bitset.assign b i v;
          model.(i) <- v)
        ops;
      Bitset.to_bool_array b = model
      && Bitset.cardinal b
         = Array.fold_left (fun a x -> if x then a + 1 else a) 0 model)

(* --- pinned engine trajectories --- *)

let result_line (r : Engine.result) =
  Printf.sprintf "rounds=%d comp=%s informed=%d pop=%d push=%d pull=%d chan=%d"
    r.Engine.rounds
    (match r.Engine.completion_round with
    | Some c -> string_of_int c
    | None -> "None")
    r.Engine.informed r.Engine.population r.Engine.push_tx r.Engine.pull_tx
    r.Engine.channels

let check_line name expected r =
  Alcotest.(check string) name expected (result_line r)

let test_pinned_bef () =
  let rng = Rng.create 4242 in
  let g = Regular.sample_connected ~rng ~n:4096 ~d:8 Regular.Pairing in
  let p = Algorithm.make (Params.make ~n_estimate:4096 ~d:8 ()) in
  check_line "bef4096"
    "rounds=17 comp=13 informed=4096 pop=4096 push=81736 pull=16384 chan=278528"
    (Run.once ~rng ~graph:g ~protocol:p ~source:0 ())

let test_pinned_fault () =
  let rng = Rng.create 99 in
  let g = Regular.sample_connected ~rng ~n:2048 ~d:8 Regular.Pairing in
  let fault =
    Fault.plan
      ~burst:(Fault.burst ~loss:0.2 ~burst_len:4.)
      ~crash_rate:0.01 ~recover_rate:0.2 ()
  in
  let p = Algorithm.make (Params.make ~alpha:2.0 ~n_estimate:2048 ~d:8 ()) in
  check_line "fault2048"
    "rounds=52 comp=27 informed=1736 pop=1935 push=51330 pull=5760 chan=387437"
    (Engine.run ~fault ~forget_on_recover:true ~rng
       ~topology:(Topology.of_graph g) ~protocol:p ~sources:[ 0 ] ())

let test_pinned_strike () =
  let rng = Rng.create 7 in
  let g = Regular.sample_connected ~rng ~n:1024 ~d:8 Regular.Pairing in
  let fault =
    Fault.plan ~call_failure:0.05 ~link_loss:0.05
      ~strike:
        (Fault.strike ~adversary:Fault.Highest_degree ~at_round:3 ~count:128 ())
      ()
  in
  let p = Algorithm.make (Params.make ~alpha:2.0 ~n_estimate:1024 ~d:8 ()) in
  check_line "strike1024"
    "rounds=28 comp=22 informed=896 pop=896 push=22449 pull=2841 chan=85247"
    (Engine.run ~fault ~rng ~topology:(Topology.of_graph g) ~protocol:p
       ~sources:[ 0 ] ())

let test_pinned_skew () =
  let rng = Rng.create 11 in
  let g = Regular.sample_connected ~rng ~n:1024 ~d:8 Regular.Pairing in
  let offsets = Array.init 1024 (fun _ -> Rng.int rng 3) in
  let p = Algorithm.make (Params.make ~alpha:2.0 ~n_estimate:1024 ~d:8 ()) in
  check_line "skew1024"
    "rounds=30 comp=21 informed=1024 pop=1024 push=32744 pull=4110 chan=122880"
    (Engine.run
       ~skew:(fun v -> offsets.(v))
       ~rng ~topology:(Topology.of_graph g) ~protocol:p ~sources:[ 0 ] ())

let test_pinned_multi () =
  let rng = Rng.create 13 in
  let g = Regular.sample_connected ~rng ~n:512 ~d:8 Regular.Pairing in
  let p = Algorithm.make (Params.make ~n_estimate:512 ~d:8 ()) in
  let msgs =
    [ { Multi.source = 0; created = 0 }; { Multi.source = 5; created = 2 } ]
  in
  let r =
    Multi.run ~rng ~topology:(Topology.of_graph g) ~protocol:p ~messages:msgs ()
  in
  let line =
    Printf.sprintf "rounds=%d chan=%d pop=%d%s" r.Multi.rounds r.Multi.channels
      r.Multi.population
      (String.concat ""
         (Array.to_list
            (Array.map
               (fun m ->
                 Printf.sprintf " [comp=%s informed=%d tx=%d]"
                   (match m.Multi.completion_round with
                   | Some c -> string_of_int c
                   | None -> "None")
                   m.Multi.informed m.Multi.transmissions)
               r.Multi.messages)))
  in
  Alcotest.(check string) "multi512"
    "rounds=16 chan=32768 pop=512 [comp=10 informed=512 tx=12272] [comp=12 \
     informed=512 tx=12264]"
    line

let test_pinned_async () =
  let rng = Rng.create 17 in
  let g = Regular.sample_connected ~rng ~n:512 ~d:8 Regular.Pairing in
  let p = Algorithm.make (Params.make ~alpha:2.0 ~n_estimate:512 ~d:8 ()) in
  let a =
    Async.run ~rng ~topology:(Topology.of_graph g) ~protocol:p ~sources:[ 0 ] ()
  in
  let line =
    Printf.sprintf "act=%d informed=%d tx=%d comp=%s" a.Async.activations
      a.Async.informed a.Async.transmissions
      (match a.Async.completion_time with
      | Some t -> Printf.sprintf "%.6f" t
      | None -> "None")
  in
  Alcotest.(check string) "async512"
    "act=14336 informed=512 tx=12024 comp=21.811273" line

let test_pinned_heal () =
  let rng = Rng.create 23 in
  let g = Regular.sample_connected ~rng ~n:1024 ~d:8 Regular.Pairing in
  let fault =
    Fault.plan
      ~burst:(Fault.burst ~loss:0.25 ~burst_len:4.)
      ~crash_rate:0.01 ~recover_rate:0.25 ()
  in
  let p = Algorithm.make (Params.make ~alpha:2.0 ~n_estimate:1024 ~d:8 ()) in
  let config = Repair.config ~n:1024 () in
  let r =
    Repair.self_heal ~fault ~config ~rng ~topology:(Topology.of_graph g)
      ~protocol:p ~sources:[ 0 ] ()
  in
  check_line "heal1024"
    "rounds=57 comp=35 informed=1024 pop=1024 push=39775 pull=893 chan=182790"
    r;
  Alcotest.(check int) "heal epochs" 1 (Engine.epochs_used r);
  Alcotest.(check int) "heal repair tx" 41 (Engine.repair_tx r)

(* --- replicate_parallel ≡ replicate --- *)

(* A measurement that consumes plenty of randomness and returns a
   structured value, so any stream divergence or slot mix-up shows. *)
let measurement rng =
  let n = 64 + Rng.int rng 64 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := (!acc * 31) + Rng.int rng 1_000_003
  done;
  (n, !acc, Rng.float rng)

let test_parallel_matches_sequential () =
  let reps = 17 in
  let seq = Experiment.replicate ~seed:42 ~reps measurement in
  List.iter
    (fun domains ->
      let par =
        Experiment.replicate_parallel ~domains ~seed:42 ~reps measurement
      in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d equals sequential" domains)
        true (par = seq))
    [ 1; 2; 3; 5; 8 ]

let test_parallel_engine_runs () =
  (* Same equivalence through a full engine run per repetition. *)
  let f rng =
    let g = Regular.sample_connected ~rng ~n:256 ~d:6 Regular.Pairing in
    let p = Algorithm.make (Params.make ~n_estimate:256 ~d:6 ()) in
    let r = Run.once ~rng ~graph:g ~protocol:p ~source:0 () in
    result_line r
  in
  let seq = Experiment.replicate ~seed:7 ~reps:6 f in
  let par = Experiment.replicate_parallel ~domains:3 ~seed:7 ~reps:6 f in
  Alcotest.(check (list string)) "engine runs identical" seq par

let test_parallel_property =
  QCheck.Test.make ~name:"replicate_parallel ≡ replicate (any domains/reps)"
    ~count:40
    QCheck.(triple small_int (int_range 1 12) (int_range 1 8))
    (fun (seed, reps, domains) ->
      Experiment.replicate_parallel ~domains ~seed ~reps measurement
      = Experiment.replicate ~seed ~reps measurement)

let test_parallel_validation () =
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Experiment.replicate_parallel: domains < 1") (fun () ->
      ignore
        (Experiment.replicate_parallel ~domains:0 ~seed:1 ~reps:2 (fun _ -> ())));
  Alcotest.(check bool) "default_domains >= 1" true
    (Experiment.default_domains () >= 1);
  Alcotest.(check bool) "default_domains <= 8" true
    (Experiment.default_domains () <= 8)

let () =
  Alcotest.run "hotpath"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic ops" `Quick test_bitset_basic;
          QCheck_alcotest.to_alcotest test_bitset_model;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "bef 4096" `Quick test_pinned_bef;
          Alcotest.test_case "burst+crash/recover 2048" `Quick test_pinned_fault;
          Alcotest.test_case "strike 1024" `Quick test_pinned_strike;
          Alcotest.test_case "skew 1024" `Quick test_pinned_skew;
          Alcotest.test_case "multi-message 512" `Quick test_pinned_multi;
          Alcotest.test_case "async 512" `Quick test_pinned_async;
          Alcotest.test_case "self-heal 1024" `Quick test_pinned_heal;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "fixed domain counts" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "engine runs" `Quick test_parallel_engine_runs;
          QCheck_alcotest.to_alcotest test_parallel_property;
          Alcotest.test_case "validation" `Quick test_parallel_validation;
        ] );
    ]
