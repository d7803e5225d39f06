(* Cross-library integration tests: miniature versions of the paper's
   claims (the full-scale versions live in bench/main.ml). *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Regular = Rumor_gen.Regular
module Product = Rumor_gen.Product
module Engine = Rumor_sim.Engine
module Trace = Rumor_test_support.Trace
module Params = Rumor_core.Params
module Phase = Rumor_core.Phase
module Algorithm = Rumor_core.Algorithm
module Baselines = Rumor_core.Baselines
module Run = Rumor_core.Run
module Experiment = Rumor_test_support.Experiment
module Summary = Rumor_test_support.Summary

let mean_tx_per_node ~protocol ~stop ~n ~d ~reps ~seed =
  Experiment.mean_of ~seed ~reps (fun rng ->
      let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
      let res =
        Run.once ~stop_when_complete:stop ~rng ~graph:g ~protocol:(protocol n)
          ~source:(Run.random_source rng g) ()
      in
      float_of_int (Engine.transmissions res) /. float_of_int n)

(* Theorem 2 shape: per-node cost of the 4-choice algorithm is (nearly)
   flat in n, while push's per-node cost grows by ~1 per doubling. *)
let test_message_scaling_shape () =
  let d = 8 and reps = 3 in
  let alg n = Algorithm.make (Params.make ~n_estimate:n ~d ()) in
  let push _n = Baselines.push ~horizon:10_000 () in
  let alg_small = mean_tx_per_node ~protocol:alg ~stop:false ~n:1024 ~d ~reps ~seed:1 in
  let alg_large = mean_tx_per_node ~protocol:alg ~stop:false ~n:8192 ~d ~reps ~seed:2 in
  let push_small = mean_tx_per_node ~protocol:push ~stop:true ~n:1024 ~d ~reps ~seed:3 in
  let push_large = mean_tx_per_node ~protocol:push ~stop:true ~n:8192 ~d ~reps ~seed:4 in
  (* 8x more nodes: push per-node cost must grow by >= 1.5 transmissions;
     the algorithm's must grow by < 1.5 (it grows like log log n). *)
  Alcotest.(check bool)
    (Printf.sprintf "push grows (%.2f -> %.2f)" push_small push_large)
    true
    (push_large -. push_small >= 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "algorithm nearly flat (%.2f -> %.2f)" alg_small alg_large)
    true
    (alg_large -. alg_small < 1.5)

(* Theorem 2/3 shape: rounds grow logarithmically — the run length at
   8x the size gains at most a constant factor of the log. *)
let test_round_scaling_logarithmic () =
  let d = 8 in
  let rounds ~seed n =
    Experiment.mean_of ~seed ~reps:3 (fun rng ->
        let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
        let res =
          Run.once ~rng ~graph:g
            ~protocol:(Algorithm.make (Params.make ~n_estimate:n ~d ()))
            ~source:(Run.random_source rng g) ()
        in
        match res.Engine.completion_round with
        | Some r -> float_of_int r
        | None -> float_of_int res.Engine.rounds)
  in
  let r1 = rounds ~seed:5 1024 and r8 = rounds ~seed:6 8192 in
  Alcotest.(check bool)
    (Printf.sprintf "rounds sublinear (%.1f -> %.1f)" r1 r8)
    true
    (r8 < 2. *. r1)

(* Lemma 1/3 shape: the informed set grows until phase 2 ends with only
   a small fraction uninformed, and pull finishes the job. *)
let test_phase_dynamics () =
  let n = 4096 and d = 8 in
  let rng = Rng.create 7 in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let params = Params.make ~n_estimate:n ~d () in
  let s = Algorithm.schedule_of params None in
  let res =
    Run.once ~collect_trace:true ~rng ~graph:g ~protocol:(Algorithm.make params)
      ~source:0 ()
  in
  Alcotest.(check bool) "complete" true (Engine.success res);
  match res.Engine.trace with
  | None -> Alcotest.fail "trace missing"
  | Some t ->
      let informed_at r =
        if r <= Trace.length t then (Trace.get t (r - 1)).Trace.informed
        else res.Engine.informed
      in
      let end1 = informed_at s.Phase.p1_end in
      let end2 = informed_at s.Phase.p2_end in
      Alcotest.(check bool)
        (Printf.sprintf "constant fraction after phase 1 (%d)" end1)
        true
        (end1 >= n / 8);
      Alcotest.(check bool)
        (Printf.sprintf "phase 2 leaves few uninformed (%d)" (n - end2))
        true
        (n - end2 <= n / 50)

(* The conclusion's counterexample graph still gets fully informed (the
   claim is about message efficiency, not correctness). *)
let test_k5_product_completes () =
  let rng = Rng.create 8 in
  let base = Regular.sample_connected ~rng ~n:256 ~d:4 Regular.Pairing in
  let g = Product.with_clique base ~k:5 in
  Alcotest.(check (option int)) "8-regular product" (Some 8) (Graph.is_regular g);
  let params = Params.make ~alpha:2.0 ~n_estimate:(Graph.n g) ~d:8 () in
  let res =
    Run.once ~rng ~graph:g ~protocol:(Algorithm.make params) ~source:0 ()
  in
  Alcotest.(check bool) "product graph completes" true (Engine.success res)

(* Fanout ablation (conclusion): more choices never hurt completion. *)
let test_fanout_monotone_success () =
  let n = 1024 and d = 8 in
  List.iter
    (fun fanout ->
      let rate =
        Experiment.success_rate ~seed:9 ~reps:3 (fun rng ->
            let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
            let params = Params.make ~alpha:2.0 ~fanout ~n_estimate:n ~d () in
            Engine.success
              (Run.once ~rng ~graph:g ~protocol:(Algorithm.make params)
                 ~source:(Run.random_source rng g) ()))
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "fanout %d always succeeds" fanout)
        1. rate)
    [ 2; 3; 4 ]

(* Full-pipeline determinism: graph generation + broadcast + statistics
   under a fixed seed is bit-for-bit reproducible. *)
let test_pipeline_deterministic () =
  let go () =
    let rng = Rng.create 10 in
    let g = Regular.sample_connected ~rng ~n:512 ~d:6 Regular.Pairing in
    let params = Params.make ~n_estimate:512 ~d:6 () in
    let res = Run.once ~rng ~graph:g ~protocol:(Algorithm.make params) ~source:0 () in
    (Engine.transmissions res, res.Engine.rounds, res.Engine.completion_round)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical replay" true (a = b)

(* Baseline cross-check (related work [20]): push on G(n,d) completes in
   about C_d ln n rounds; check the measured constant is in the right
   ballpark for d = 8 (C_8 ~ 1.98... in ln units). *)
let test_push_constant_ballpark () =
  let n = 8192 and d = 8 in
  let rounds =
    Experiment.summarize ~seed:11 ~reps:5 (fun rng ->
        let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
        let res =
          Run.once ~stop_when_complete:true ~rng ~graph:g
            ~protocol:(Baselines.push ~horizon:10_000 ())
            ~source:(Run.random_source rng g) ()
        in
        float_of_int res.Engine.rounds)
  in
  let dd = float_of_int d in
  let c_d =
    (1. /. log (2. *. (1. -. (1. /. dd)))) -. (1. /. (dd *. log (1. -. (1. /. dd))))
  in
  let predicted = c_d *. log (float_of_int n) in
  let ratio = rounds.Summary.mean /. predicted in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.1f vs C_d ln n = %.1f (ratio %.2f)"
       rounds.Summary.mean predicted ratio)
    true
    (ratio > 0.7 && ratio < 1.4)

let () =
  Alcotest.run "integration"
    [
      ( "paper-shapes",
        [
          Alcotest.test_case "message scaling" `Slow test_message_scaling_shape;
          Alcotest.test_case "round scaling" `Slow test_round_scaling_logarithmic;
          Alcotest.test_case "phase dynamics" `Slow test_phase_dynamics;
          Alcotest.test_case "K5 product" `Slow test_k5_product_completes;
          Alcotest.test_case "fanout success" `Slow test_fanout_monotone_success;
          Alcotest.test_case "determinism" `Quick test_pipeline_deterministic;
          Alcotest.test_case "push constant" `Slow test_push_constant_ballpark;
        ] );
    ]
