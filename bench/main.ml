(* Experiment harness: one section per experiment in DESIGN.md's
   per-experiment index (E1..E12), plus bechamel micro-benchmarks.

   Every experiment prints an ASCII table with the measured shape of a
   claim from the paper (the paper is purely theoretical — it has no
   empirical tables, so the theorem statements define the targets; see
   EXPERIMENTS.md for the paper-vs-measured record).

   E1, E5, E6, E7, E11, A1, A12 and A13 are committed matrix files
   (scenarios/matrix_*.txt) run by [matrix_experiment]; E1 adds a
   slope fit. --quick runs a file's committed quick twin
   (matrix_ci*.txt) when it has one, and otherwise shrinks it to
   n = 4096 and 3 reps. E8 keeps a wrapper over its matrix file for
   its survivor-only repair columns; the rest are hand-written loops.

   With --json FILE the harness additionally writes one machine-readable
   record per experiment (schema "rumor-bench/1": id, title, params,
   per-seed metrics, summaries, wall/CPU seconds, GC deltas, git
   metadata) so performance trajectories can be diffed across PRs —
   see EXPERIMENTS.md for the schema and `rumor bench-check` for the
   validator.

   Usage: main.exe [E1 E2 ... | all] [--quick] [--reps N] [--domains N]
          [--json FILE] *)

module Rng = Rumor_rng.Rng
module Dist = Rumor_rng.Dist
module Graph = Rumor_graph.Graph
module Spectral = Rumor_graph.Spectral
module Regular = Rumor_gen.Regular
module Product = Rumor_gen.Product
module Engine = Rumor_sim.Engine
module Topology = Rumor_sim.Topology
module Fault = Rumor_sim.Fault
module Trace = Rumor_sim.Trace
module Selector = Rumor_sim.Selector
module Params = Rumor_core.Params
module Phase = Rumor_core.Phase
module Algorithm = Rumor_core.Algorithm
module Baselines = Rumor_core.Baselines
module Run = Rumor_core.Run
module Overlay = Rumor_p2p.Overlay
module Churn = Rumor_p2p.Churn
module Replica = Rumor_p2p.Replica
module Summary = Rumor_stats.Summary
module Table = Rumor_stats.Table
module Regression = Rumor_stats.Regression
module Experiment = Rumor_stats.Experiment
module Json = Rumor_obs.Json
module Metrics = Rumor_obs.Metrics
module Encode = Rumor_obs.Encode
module Chaos = Rumor_cli.Chaos
module Scenario = Rumor_cli.Scenario
module Matrix = Rumor_cli.Matrix

let quick = ref false
let reps_override : int option ref = ref None
let reps () =
  match !reps_override with Some r -> r | None -> if !quick then 3 else 5

(* 0 = auto (Experiment.default_domains); reps are pre-forked RNG
   streams, so the domain count never changes results, only wall time. *)
let domains_flag = ref 0
let domains () =
  if !domains_flag >= 1 then !domains_flag else Experiment.default_domains ()

(* --- telemetry ---

   When --json FILE is given, experiments append (key, value) pairs to
   [current_data] via [record]; the driver wraps each experiment in a
   Metrics.timed span and assembles one record per experiment. Without
   --json, [record] is a no-op and the harness behaves exactly as
   before. *)

let json_path : string option ref = ref None
let current_points : Json.t list ref = ref []
let current_scalars : (string * Json.t) list ref = ref []
let current_title = ref ""

(* A repeated measurement (one per sweep point) — lands in the record's
   [data.points] array, in emission order. *)
let record_point v =
  if !json_path <> None then current_points := v :: !current_points

(* A one-shot named value (a fit, a derived constant). *)
let record key v =
  if !json_path <> None then current_scalars := (key, v) :: !current_scalars

let section id title =
  current_title := title;
  Printf.printf "\n=== %s: %s ===\n%!" id title

let fin x = float_of_int x
let log2 = Params.log2

(* One protocol run on a fresh G(n,d) instance; returns the engine result. *)
let run_once ?(stop = false) ~rng ~n ~d protocol =
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  Run.once ~stop_when_complete:stop ~rng ~graph:g ~protocol
    ~source:(Run.random_source rng g) ()

type sweep_point = {
  tx_per_node : Summary.t;
  rounds : Summary.t;  (** completion (or last) round per repetition *)
  success : float;
}

let sweep ?(stop = false) ~seed ~n ~d protocol_of =
  let results =
    Experiment.replicate_parallel ~domains:(domains ()) ~seed ~reps:(reps ())
      (fun rng -> run_once ~stop ~rng ~n ~d (protocol_of ()))
  in
  let rounds (r : Engine.result) =
    match r.Engine.completion_round with
    | Some c -> fin c
    | None -> fin r.Engine.rounds
  in
  {
    tx_per_node =
      Summary.of_list
        (List.map (fun r -> fin (Engine.transmissions r) /. fin n) results);
    rounds = Summary.of_list (List.map rounds results);
    success =
      fin (List.length (List.filter Engine.success results))
      /. fin (List.length results);
  }

(* --- committed matrix files ---

   Experiments declared as scenarios/matrix_*.txt run through
   [matrix_experiment]: each file prints its per-cell results table
   and contributes one Matrix.point_json point per cell. *)

let scenarios_dir () =
  if Sys.file_exists (Filename.concat "scenarios" "matrix_e1.txt") then
    "scenarios"
  else
    (* `dune exec` may leave us in a sandbox cwd; walk up from the
       executable (_build/default/bench/main.exe). *)
    let cand =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat ".." ".."))
    in
    let cand = Filename.concat cand "scenarios" in
    if Sys.file_exists (Filename.concat cand "matrix_e1.txt") then cand
    else failwith "cannot locate the scenarios/ directory"

let load_matrix file =
  match Matrix.parse_file (Filename.concat (scenarios_dir ()) file) with
  | Ok spec -> spec
  | Error m -> failwith (Printf.sprintf "%s: %s" file m)

let patch_base spec ~key ~value =
  match Matrix.set_base spec ~key ~value with
  | Ok spec -> spec
  | Error m -> failwith m

let patch_reps spec r = patch_base spec ~key:"reps" ~value:(string_of_int r)

let run_matrix spec =
  match Matrix.run ~domains:(domains ()) spec with
  | Ok rr -> rr
  | Error m -> failwith m

(* An experiment that is its matrix files, titled after the first one.
   --quick runs the committed quick twin when there is one; otherwise
   it shrinks every file to n = 4096 and 3 reps in place, so each cell
   keeps its seed. Full mode runs each file's own reps; --reps N
   overrides reps in both modes. [postlude] sees every run result. *)
let matrix_experiment ?quick_twin ?(postlude = ignore) files () =
  let specs = List.map load_matrix files in
  let first = List.hd specs in
  section first.Matrix.id first.Matrix.title;
  let specs =
    match quick_twin with
    | Some twin when !quick -> [ load_matrix twin ]
    | None when !quick ->
        List.map
          (fun s -> patch_reps (patch_base s ~key:"n" ~value:"4096") 3)
          specs
    | _ -> specs
  in
  let specs =
    match !reps_override with
    | Some r -> List.map (fun s -> patch_reps s r) specs
    | None -> specs
  in
  postlude
    (List.map
       (fun spec ->
         let rr = run_matrix spec in
         print_endline (Matrix.results_table rr);
         List.iter
           (fun o -> record_point (Matrix.point_json o))
           rr.Matrix.outcomes;
         rr)
       specs)

(* The raw engine results of the cell whose coordinates contain every
   (key, value) of [subset] — subset matching keeps E8's wrapper
   independent of zip-key ordering inside [coords]. *)
let results_where rr subset =
  match
    List.find_opt
      (fun (o : Matrix.cell_outcome) ->
        List.for_all
          (fun kv -> List.mem kv o.Matrix.cell.Matrix.coords)
          subset)
      rr.Matrix.outcomes
  with
  | Some o when o.Matrix.results <> [] -> o.Matrix.results
  | _ ->
      failwith
        (Printf.sprintf "matrix cell {%s} missing (truncated run?)"
           (String.concat ", "
              (List.map (fun (k, v) -> k ^ " = " ^ v) subset)))

(* ------------------------------------------------------------------ *)
(* E0: do generated instances satisfy the proofs' assumptions?         *)
(* ------------------------------------------------------------------ *)

let e0 () =
  section "E0" "instance validation: the structural assumptions behind the proofs";
  let n = if !quick then 4096 else 16384 in
  let t =
    Table.create
      ~columns:
        [
          ("d", Table.Right);
          ("connected", Table.Right);
          ("girth", Table.Right);
          ("tree frac r=1", Table.Right);
          ("tree frac r=2", Table.Right);
          ("lambda2", Table.Right);
          ("2 sqrt(d-1)", Table.Right);
          ("diam >=", Table.Right);
        ]
  in
  List.iteri
    (fun i d ->
      let rng = Rng.create (50 + i) in
      (* The erased variant is simple (the pairing variant trivially has
         girth 1 from its self-loops); erasure keeps the structure the
         proofs rely on. *)
      let g = Regular.sample ~rng ~n ~d Regular.Erased in
      let girth =
        match Rumor_graph.Structure.girth ~max_roots:128 ~rng g with
        | Some x -> string_of_int x
        | None -> "-"
      in
      Table.add_row t
        [
          string_of_int d;
          string_of_bool (Rumor_graph.Traversal.is_connected g);
          girth;
          Printf.sprintf "%.3f"
            (Rumor_graph.Structure.tree_fraction g ~rng ~radius:1 ~samples:400);
          Printf.sprintf "%.3f"
            (Rumor_graph.Structure.tree_fraction g ~rng ~radius:2 ~samples:400);
          Printf.sprintf "%.2f" (Spectral.lambda2 g ~rng ~iters:80);
          Printf.sprintf "%.2f" (Spectral.ramanujan_bound d);
          string_of_int
            (Rumor_graph.Traversal.diameter_lower_bound g ~rng ~samples:2);
        ])
    [ 4; 8; 16 ];
  Table.print t;
  print_endline
    "(the proofs need: connectivity, local tree-likeness (Lemma 1) — which\n\
    \ degrades with d at fixed n since a radius-r ball holds ~d^r vertices —\n\
    \ and the Friedman eigenvalue bound behind the Expander-Mixing Lemma)"

(* ------------------------------------------------------------------ *)
(* E1 + E2: transmissions and rounds vs n (Theorems 2 and 3).          *)
(* ------------------------------------------------------------------ *)

(* E1 is matrix_e1.txt (matrix_ci.txt under --quick); this postlude
   fits each protocol's tx/node against log2 n. A cell's mean is the
   Summary mean of its per-seed tx/node, and the points run from the
   largest n down, the order the fit has always summed in. *)
let e1_postlude rrs =
  let curve proto =
    List.concat_map (fun rr -> rr.Matrix.outcomes) rrs
    |> List.filter_map (fun (o : Matrix.cell_outcome) ->
           let coords = o.Matrix.cell.Matrix.coords in
           match List.assoc "per_seed_tx" o.Matrix.per_seed with
           | _ :: _ as txs when List.assoc "protocol" coords = proto ->
               Some
                 ( float_of_string (List.assoc "n" coords),
                   (Summary.of_list txs).Summary.mean )
           | _ -> None)
    |> List.rev
  in
  let bef = curve "bef" and push = curve "push" in
  if List.length bef >= 2 && List.length push >= 2 then begin
    let slope pts = (Regression.semilogx pts).Regression.slope in
    record "per_doubling_slope"
      (Json.Obj
         [ ("bef", Json.Float (slope bef)); ("push", Json.Float (slope push)) ]);
    Printf.printf
      "per-doubling growth of tx/node: bef %.3f vs push %.3f (paper: O(log log n) vs Theta(log n))\n"
      (slope bef) (slope push);
    let to_log2x = List.map (fun (x, y) -> (log2 x, y)) in
    print_string
      (Rumor_stats.Plot.render ~width:56 ~height:12 ~x_label:"log2 n"
         ~y_label:"tx/node"
         [
           { Rumor_stats.Plot.name = "bef"; marker = '*'; points = to_log2x bef };
           { Rumor_stats.Plot.name = "push"; marker = 'o'; points = to_log2x push };
         ])
  end

(* ------------------------------------------------------------------ *)
(* E3: the lower bound shape (Theorem 1).                              *)
(* ------------------------------------------------------------------ *)

(* Minimal pull-tail length needed by a Karp-style strictly oblivious
   schedule (push-only, then pull-only), found by binary search against
   a fixed bag of instances. The lower bound (Theorem 1) forces this
   tail to be Omega(log n / log d) in the standard one-call model. *)
let minimal_tail ~seed ~n ~d ~fanout =
  let push_rounds = Params.ceil_log2 n + 2 in
  let instances =
    Experiment.replicate_parallel ~domains:(domains ()) ~seed ~reps:(reps ()) (fun rng ->
        let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
        (g, Rng.split rng))
  in
  let succeeds tail =
    List.for_all
      (fun (g, rng) ->
        let rng = Rng.copy rng in
        let protocol =
          Baselines.push_then_pull ~fanout ~push_rounds
            ~total_rounds:(push_rounds + tail) ()
        in
        Engine.success
          (Run.once ~rng ~graph:g ~protocol ~source:0 ()))
      instances
  in
  let rec search lo hi =
    (* invariant: lo fails (or is -1), hi succeeds *)
    if hi - lo <= 1 then hi
    else begin
      let mid = (lo + hi) / 2 in
      if succeeds mid then search lo mid else search mid hi
    end
  in
  let hi0 = 6 * Params.ceil_log2 n in
  if succeeds 0 then 0
  else if not (succeeds hi0) then hi0
  else search 0 hi0

let e3 () =
  section "E3" "lower bound: standard-model transmissions ~ n log n / log d (Theorem 1)";
  let n = if !quick then 4096 else 16384 in
  let degs = [ 4; 8; 16; 32; 64 ] in
  let t =
    Table.create
      ~columns:
        [
          ("d", Table.Right);
          ("log n/log d", Table.Right);
          ("min tail", Table.Right);
          ("1-call tx/node", Table.Right);
          ("4-call bef tx/node", Table.Right);
        ]
  in
  let pts = ref [] in
  List.iteri
    (fun i d ->
      let tail = minimal_tail ~seed:(400 + i) ~n ~d ~fanout:1 in
      let push_rounds = Params.ceil_log2 n + 2 in
      let tuned =
        sweep ~seed:(500 + i) ~n ~d (fun () ->
            Baselines.push_then_pull ~push_rounds
              ~total_rounds:(push_rounds + tail) ())
      in
      let bef =
        sweep ~seed:(600 + i) ~n ~d (fun () ->
            Algorithm.make (Params.make ~n_estimate:n ~d ()))
      in
      let x = log2 (fin n) /. log2 (fin d) in
      pts := (x, tuned.tx_per_node.Summary.mean) :: !pts;
      Table.add_row t
        [
          string_of_int d;
          Printf.sprintf "%.2f" x;
          string_of_int tail;
          Printf.sprintf "%.1f" tuned.tx_per_node.Summary.mean;
          Printf.sprintf "%.1f" bef.tx_per_node.Summary.mean;
        ])
    degs;
  Table.print t;
  let fit = Regression.linear !pts in
  Printf.printf
    "tuned 1-call tx/node vs log n/log d: slope %.2f, r2 %.2f (lower bound predicts a positive linear trend)\n"
    fit.Regression.slope fit.Regression.r2;
  print_string
    (Rumor_stats.Plot.render ~width:56 ~height:10 ~x_label:"log n / log d"
       ~y_label:"tx/node"
       [ { Rumor_stats.Plot.name = "1-call"; marker = '*'; points = !pts } ])

(* ------------------------------------------------------------------ *)
(* E4: phase dynamics of one run (Lemmas 1-3).                         *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4" "phase dynamics of a single run (Lemmas 1-3)";
  let n = if !quick then 16384 else 65536 in
  let d = 8 in
  let rng = Rng.create 4242 in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let params = Params.make ~n_estimate:n ~d () in
  let s = Algorithm.schedule_of params None in
  let res =
    Run.once ~collect_trace:true ~rng ~graph:g ~protocol:(Algorithm.make params)
      ~source:0 ()
  in
  Printf.printf
    "n=%d d=%d variant=%s | phase1 <= %d, phase2 <= %d, phase3 <= %d, end %d\n"
    n d (Phase.variant_to_string s.Phase.variant) s.Phase.p1_end s.Phase.p2_end
    s.Phase.p3_end s.Phase.last;
  (match res.Engine.trace with
  | None -> ()
  | Some tr ->
      let t =
        Table.create
          ~columns:
            [
              ("round", Table.Right);
              ("phase", Table.Left);
              ("informed", Table.Right);
              ("newly", Table.Right);
              ("push tx", Table.Right);
              ("pull tx", Table.Right);
            ]
      in
      List.iter
        (fun r ->
          let phase =
            match Phase.phase_of s ~round:r.Trace.round with
            | Phase.Phase1 -> "1 push-once"
            | Phase.Phase2 -> "2 push-all"
            | Phase.Phase3 -> "3 pull"
            | Phase.Phase4 -> "4 active-push"
            | Phase.Finished -> "-"
          in
          Table.add_row t
            [
              string_of_int r.Trace.round;
              phase;
              string_of_int r.Trace.informed;
              string_of_int r.Trace.newly;
              string_of_int r.Trace.push_tx;
              string_of_int r.Trace.pull_tx;
            ])
        (Trace.rows tr);
      Table.print t);
  Printf.printf "complete=%b total tx/node=%.1f\n" (Engine.success res)
    (fin (Engine.transmissions res) /. fin n)

(* ------------------------------------------------------------------ *)
(* E8: the self-healing frontier (fault x churn, repair on/off).       *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8"
    "self-healing frontier: fault x churn grid, repair epochs on/off";
  let n = if !quick then 2048 else 8192 in
  (* The fault x churn x repair grid lives in scenarios/matrix_e8.txt:
     the three fault storms are one axis (burst_len / crash_rate /
     recover_rate zipped onto burst_loss), churn_rate the second,
     max_epochs (0 = bare, 8 = repair) the third — the repair axis
     carries no seed stride, so both arms of a (fault, churn) cell run
     on identical storms, exactly as the old loops reused one seed. *)
  let spec = load_matrix "matrix_e8.txt" in
  let spec = patch_base spec ~key:"reps" ~value:(string_of_int (reps ())) in
  let spec =
    if !quick then patch_base spec ~key:"n" ~value:(string_of_int n)
    else spec
  in
  let rr = run_matrix spec in
  let faults =
    [
      ("none", "0");
      ("burst 0.2 + crash", "0.2");
      ("burst 0.3 + crash", "0.3");
    ]
  in
  let churn_rates = [ ("0", 0.); ("0.005", 0.005); ("0.02", 0.02) ] in
  let t =
    Table.create
      ~columns:
        [
          ("fault", Table.Left);
          ("churn/round", Table.Right);
          ("cov (bare)", Table.Right);
          ("cov (repair)", Table.Right);
          ("epochs", Table.Right);
          ("repair tx/node", Table.Right);
          ("extinct", Table.Right);
        ]
  in
  List.iter
    (fun (fault_label, loss_s) ->
      List.iter
        (fun (rate_s, rate) ->
          let cell epochs_s =
            results_where rr
              [
                ("burst_loss", loss_s);
                ("churn_rate", rate_s);
                ("max_epochs", epochs_s);
              ]
          in
          let bare = cell "0" in
          let healed = cell "8" in
          (* A crashed-with-amnesia source can kill the rumor before it
             spreads; with no live knower left, no protocol can recover
             it, so extinct seeds are counted apart instead of dragging
             the repair coverage below a reachable target. *)
          let survivors = List.filter (fun r -> r.Engine.informed > 0) healed in
          let extinct = List.length healed - List.length survivors in
          let coverage rs = List.map Engine.coverage rs in
          let cov_bare = Summary.of_list (coverage bare) in
          let cov_healed =
            Summary.of_list
              (if survivors = [] then [ 0. ] else coverage survivors)
          in
          let epochs =
            Summary.of_list
              (match survivors with
              | [] -> [ 0. ]
              | rs -> List.map (fun r -> fin (Engine.epochs_used r)) rs)
          in
          let repair_tx =
            Summary.of_list
              (match survivors with
              | [] -> [ 0. ]
              | rs -> List.map (fun r -> fin (Engine.repair_tx r) /. fin n) rs)
          in
          record_point
            (Json.Obj
               [
                 ("fault", Json.String fault_label);
                 ("churn_rate", Json.Float rate);
                 ("coverage_bare", Encode.summary cov_bare);
                 ("coverage_repair", Encode.summary cov_healed);
                 ("epochs_used", Encode.summary epochs);
                 ("repair_tx_per_node", Encode.summary repair_tx);
                 ("extinct_seeds", Json.Int extinct);
                 ( "per_seed",
                   Json.Obj
                     [
                       ("coverage_bare", Encode.float_list (coverage bare));
                       ("coverage_repair", Encode.float_list (coverage healed));
                       ( "epochs_used",
                         Encode.float_list
                           (List.map (fun r -> fin (Engine.epochs_used r)) healed)
                       );
                     ] );
               ]);
          Table.add_row t
            [
              fault_label;
              Printf.sprintf "%.3f n" rate;
              Printf.sprintf "%.4f" cov_bare.Summary.mean;
              Printf.sprintf "%.4f" cov_healed.Summary.mean;
              Printf.sprintf "%.1f" epochs.Summary.mean;
              Printf.sprintf "%.2f" repair_tx.Summary.mean;
              string_of_int extinct;
            ])
        churn_rates)
    faults;
  Table.print t;
  print_endline
    "(bare = engine stops when informed nodes go quiescent; repair = bounded\n\
    \ pull-timeout/backoff epochs afterwards, averaged over seeds where the\n\
    \ rumor survived. The repair column should sit at 1.0000 with a few\n\
    \ epochs and O(1) extra transmissions per node; extinct counts seeds\n\
    \ where crash amnesia killed every copy before it spread — unrecoverable\n\
    \ by any protocol.)"

(* ------------------------------------------------------------------ *)
(* E9: replicated database maintenance.                                *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "replicated database: rumor mongering vs anti-entropy ([7])";
  let n = if !quick then 1024 else 4096 in
  let d = 8 in
  let updates = 64 in
  let rng = Rng.create 1100 in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  (* Strategy A: every update is broadcast with the paper's algorithm. *)
  let o = Overlay.of_graph ~capacity:n g in
  let r = Replica.create ~capacity:n in
  let protocol () = Algorithm.make (Params.make ~n_estimate:n ~d ()) in
  let bcast_tx = ref 0 and bcast_rounds = ref 0 in
  for u = 1 to updates do
    let origin = Overlay.random_node o rng in
    let key = Dist.zipf rng ~n:256 ~s:1. in
    let res =
      Replica.broadcast ~rng ~overlay:o ~protocol:(protocol ()) r ~origin ~key
        ~data:u
    in
    bcast_tx := !bcast_tx + Engine.transmissions res;
    bcast_rounds := !bcast_rounds + res.Engine.rounds
  done;
  let converged_a = Replica.converged r ~overlay:o in
  (* Strategy B: updates are written locally, anti-entropy spreads them. *)
  let r2 = Replica.create ~capacity:n in
  let rng2 = Rng.create 1101 in
  for u = 1 to updates do
    let origin = Overlay.random_node o rng2 in
    let key = Dist.zipf rng2 ~n:256 ~s:1. in
    ignore (Replica.local_write r2 ~node:origin ~key ~data:u)
  done;
  let ae_transfers = ref 0 and ae_compared = ref 0 and ae_rounds = ref 0 in
  while (not (Replica.converged r2 ~overlay:o)) && !ae_rounds < 200 do
    let c = Replica.anti_entropy_round ~rng:rng2 ~overlay:o r2 in
    ae_transfers := !ae_transfers + c.Replica.transfers;
    ae_compared := !ae_compared + c.Replica.compared;
    incr ae_rounds
  done;
  let t =
    Table.create
      ~columns:
        [
          ("strategy", Table.Left);
          ("converged", Table.Right);
          ("rounds", Table.Right);
          ("sent/node/update", Table.Right);
          ("work/node/update", Table.Right);
        ]
  in
  Table.add_row t
    [
      "broadcast each update (bef)";
      string_of_bool converged_a;
      Printf.sprintf "%.1f" (fin !bcast_rounds /. fin updates);
      Printf.sprintf "%.1f" (fin !bcast_tx /. fin n /. fin updates);
      Printf.sprintf "%.1f" (fin !bcast_tx /. fin n /. fin updates);
    ];
  Table.add_row t
    [
      "anti-entropy only";
      string_of_bool (Replica.converged r2 ~overlay:o);
      string_of_int !ae_rounds;
      Printf.sprintf "%.1f" (fin !ae_transfers /. fin n /. fin updates);
      Printf.sprintf "%.1f" (fin !ae_compared /. fin n /. fin updates);
    ];
  Table.print t;
  print_endline
    "(work counts store entries examined during reconciliation; [7] replaces\n\
    \ constant anti-entropy with rumor mongering precisely because the digest\n\
    \ work grows with the database, not with the update)"

(* ------------------------------------------------------------------ *)
(* E10: the K5-product counterexample (Conclusions).                   *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "Cartesian product with K5 vs G(n,d) (Conclusions)";
  (* Warm start: half the nodes already know the rumor; pull-only rounds
     finish the job. The number of rounds (and hence transmissions) this
     tail needs is where multiple choices pay off — the conclusion
     predicts the payoff shrinks on the product graph, whose columns of
     clique-mates make 4 of every node's 8 neighbours redundant. *)
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let graph_regular rng = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let graph_product rng =
    let base = Regular.sample_connected ~rng ~n:(n / 5) ~d:(d - 4) Regular.Pairing in
    Product.with_clique base ~k:5
  in
  let pull_tail ~seed graph_of fanout =
    (* Mean rounds for pull-only to finish from a uniform half-informed
       start, plus the mean transmissions spent. *)
    let results =
      Experiment.replicate_parallel ~domains:(domains ()) ~seed ~reps:(reps ()) (fun rng ->
          let g = graph_of rng in
          let sources =
            Array.to_list (Rng.distinct rng ~bound:(Graph.n g) ~k:(Graph.n g / 2))
          in
          Engine.run ~stop_when_complete:true ~rng
            ~topology:(Topology.of_graph g)
            ~protocol:(Baselines.pull ~fanout ~horizon:400 ())
            ~sources ())
    in
    let rounds =
      Summary.of_list
        (List.map
           (fun r ->
             match r.Engine.completion_round with
             | Some c -> fin c
             | None -> fin r.Engine.rounds)
           results)
    in
    let tx =
      Summary.of_list
        (List.map (fun r -> fin (Engine.transmissions r) /. fin n) results)
    in
    (rounds.Summary.mean, tx.Summary.mean)
  in
  let t =
    Table.create
      ~columns:
        [
          ("topology", Table.Left);
          ("rounds f=1", Table.Right);
          ("rounds f=4", Table.Right);
          ("speedup", Table.Right);
          ("tx/node f=1", Table.Right);
          ("tx/node f=4", Table.Right);
          ("msg saving", Table.Right);
        ]
  in
  List.iteri
    (fun i (name, graph_of) ->
      let r1, x1 = pull_tail ~seed:(1200 + i) graph_of 1 in
      let r4, x4 = pull_tail ~seed:(1300 + i) graph_of 4 in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.1f" r1;
          Printf.sprintf "%.1f" r4;
          Printf.sprintf "%.2fx" (r1 /. r4);
          Printf.sprintf "%.1f" x1;
          Printf.sprintf "%.1f" x4;
          Printf.sprintf "%.2fx" (x1 /. x4);
        ])
    [ ("G(n,8)", graph_regular); ("G(n/5,4) x K5", graph_product) ];
  Table.print t;
  print_endline
    "(the paper predicts a clear improvement on G(n,d) and a weaker one on the product)";
  (* Mechanism check: the proof of Theorem 2 needs nodes with >= 4
     uninformed neighbours to be rare, so that one pull round over four
     distinct channels clears (deterministically) everyone else. Whole
     uninformed K5-columns break that argument: every member has exactly
     4 uninformed neighbours and survives the pull with probability
     C(4,4)/C(8,4) = 1/70 instead of ~0. Measure survivors of a single
     4-distinct pull round from a 10% uninformed start. *)
  let survivors ~seed make_graph_and_uninformed =
    Experiment.mean_of ~seed ~reps:(reps ()) (fun rng ->
        let g, uninformed = make_graph_and_uninformed rng in
        let mark = Array.make (Graph.n g) true in
        List.iter (fun v -> mark.(v) <- false) uninformed;
        let sources =
          List.filter (fun v -> mark.(v))
            (List.init (Graph.n g) (fun i -> i))
        in
        let res =
          Engine.run ~rng
            ~topology:(Topology.of_graph g)
            ~protocol:(Baselines.pull ~fanout:4 ~horizon:1 ())
            ~sources ()
        in
        fin (res.Engine.population - res.Engine.informed)
        /. fin (List.length uninformed))
  in
  let regular_random rng =
    let g = graph_regular rng in
    let h = Graph.n g / 10 in
    (g, Array.to_list (Rng.distinct rng ~bound:(Graph.n g) ~k:h))
  in
  let product_columns rng =
    let g = graph_product rng in
    let base = Graph.n g / 5 in
    let cols = Array.to_list (Rng.distinct rng ~bound:base ~k:(base / 10)) in
    (g, List.concat_map (fun c -> List.init 5 (fun l -> (c * 5) + l)) cols)
  in
  let s_reg = survivors ~seed:1250 regular_random in
  let s_prod = survivors ~seed:1251 product_columns in
  Printf.printf
    "one 4-distinct pull round, 10%% uninformed: survivors %.5f (G(n,8), random set) vs %.5f (product, whole columns; 1/70 = %.5f predicted)\n"
    s_reg s_prod (1. /. 70.)

(* ------------------------------------------------------------------ *)
(* E12: related-work sanity checks.                                    *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "push constant C_d (Fountoulakis-Panagiotou) and the memory variant [13]";
  let t =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("d", Table.Right);
          ("push rounds", Table.Right);
          ("C_d ln n", Table.Right);
          ("ratio", Table.Right);
        ]
  in
  let sizes = if !quick then [ 4096 ] else [ 4096; 16384; 65536 ] in
  List.iteri
    (fun i n ->
      List.iteri
        (fun j d ->
          let st =
            sweep ~stop:true ~seed:(1500 + (10 * i) + j) ~n ~d (fun () ->
                Baselines.push ~horizon:(30 * Params.ceil_log2 n) ())
          in
          let dd = fin d in
          let c_d =
            (1. /. log (2. *. (1. -. (1. /. dd))))
            -. (1. /. (dd *. log (1. -. (1. /. dd))))
          in
          let predicted = c_d *. log (fin n) in
          Table.add_row t
            [
              string_of_int n;
              string_of_int d;
              Printf.sprintf "%.1f" st.rounds.Summary.mean;
              Printf.sprintf "%.1f" predicted;
              Printf.sprintf "%.2f" (st.rounds.Summary.mean /. predicted);
            ])
        [ 4; 8; 16 ])
    sizes;
  Table.print t;
  (* Memory variant vs the 4-choice model: same message budget class. *)
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let bef =
    sweep ~seed:1600 ~n ~d (fun () ->
        Algorithm.make (Params.make ~n_estimate:n ~d ()))
  in
  let memory =
    sweep ~seed:1601 ~n ~d (fun () ->
        Algorithm.sequentialised (Params.make ~n_estimate:n ~d ()))
  in
  Printf.printf
    "memory variant [13] (1 call avoiding last 3): tx/node %.1f success %.0f%% | 4-choice: tx/node %.1f success %.0f%%\n"
    memory.tx_per_node.Summary.mean (100. *. memory.success)
    bef.tx_per_node.Summary.mean (100. *. bef.success)

(* ------------------------------------------------------------------ *)
(* Ablations and extensions.                                           *)
(* ------------------------------------------------------------------ *)

(* A2: clock skew — the paper assumes synchronised clocks. *)
let a2 () =
  section "A2" "ablation: clock skew (global-clock assumption)";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let t =
    Table.create
      ~columns:
        [
          ("max skew", Table.Right);
          ("success", Table.Right);
          ("coverage", Table.Right);
        ]
  in
  List.iteri
    (fun i max_skew ->
      let results =
        Experiment.replicate_parallel ~domains:(domains ()) ~seed:(1900 + i) ~reps:(reps ()) (fun rng ->
            let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
            let offsets =
              Array.init n (fun _ ->
                  if max_skew = 0 then 0 else Rng.int rng (max_skew + 1))
            in
            let params = Params.make ~alpha:2.0 ~n_estimate:n ~d () in
            Engine.run
              ~skew:(fun v -> offsets.(v))
              ~rng
              ~topology:(Topology.of_graph g)
              ~protocol:(Algorithm.make params) ~sources:[ 0 ] ())
      in
      let success =
        fin (List.length (List.filter Engine.success results))
        /. fin (List.length results)
      in
      let coverage =
        Summary.of_list
          (List.map
             (fun r -> fin r.Engine.informed /. fin r.Engine.population)
             results)
      in
      Table.add_row t
        [
          string_of_int max_skew;
          Printf.sprintf "%.0f%%" (100. *. success);
          Printf.sprintf "%.4f" coverage.Summary.mean;
        ])
    [ 0; 1; 2; 4; 8 ];
  Table.print t

(* A3: channel amortisation over many simultaneous rumors. *)
let a3 () =
  section "A3" "extension: channel amortisation over k rumors (Section 1 premise)";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let t =
    Table.create
      ~columns:
        [
          ("rumors", Table.Right);
          ("channels/rumor/node", Table.Right);
          ("tx/rumor/node", Table.Right);
          ("all complete", Table.Right);
        ]
  in
  List.iteri
    (fun i k ->
      let rng = Rng.create (2000 + i) in
      let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
      let params = Params.make ~n_estimate:n ~d () in
      let messages =
        List.init k (fun j ->
            { Rumor_sim.Multi.source = Rng.int rng n; created = 2 * j })
      in
      let r =
        Rumor_sim.Multi.run ~rng
          ~topology:(Topology.of_graph g)
          ~protocol:(Algorithm.make params) ~messages ()
      in
      Table.add_row t
        [
          string_of_int k;
          Printf.sprintf "%.1f" (fin r.Rumor_sim.Multi.channels /. fin k /. fin n);
          Printf.sprintf "%.1f"
            (fin (Rumor_sim.Multi.total_transmissions r) /. fin k /. fin n);
          string_of_bool (Rumor_sim.Multi.all_complete r);
        ])
    [ 1; 4; 16; 64 ];
  Table.print t;
  print_endline
    "(channels are opened blindly every round; with many concurrent rumors the\n\
    \ per-rumor channel overhead vanishes while per-rumor transmissions stay flat)"

(* A4: the adaptive median-counter termination of [25] vs the paper's
   oblivious schedule. *)
let a4 () =
  section "A4" "extension: median-counter termination [25] vs age-based schedule";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let t =
    Table.create
      ~columns:
        [
          ("protocol", Table.Left);
          ("tx/node", Table.Right);
          ("completion", Table.Right);
          ("self-terminating", Table.Left);
        ]
  in
  let bef =
    sweep ~seed:2100 ~n ~d (fun () ->
        Algorithm.make (Params.make ~n_estimate:n ~d ()))
  in
  Table.add_row t
    [
      "bef (age-based, oblivious)";
      Printf.sprintf "%.1f" bef.tx_per_node.Summary.mean;
      Printf.sprintf "%.1f" bef.rounds.Summary.mean;
      "no (needs n estimate)";
    ];
  let mc =
    Experiment.replicate_parallel ~domains:(domains ()) ~seed:2101 ~reps:(reps ()) (fun rng ->
        let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
        let config = Rumor_core.Median_counter.default_config ~n ~fanout:1 in
        Rumor_core.Median_counter.run ~rng ~graph:g ~config ~source:0)
  in
  let mc_tx =
    Summary.of_list
      (List.map
         (fun r -> fin r.Rumor_core.Median_counter.transmissions /. fin n)
         mc)
  in
  let mc_done =
    Summary.of_list
      (List.map
         (fun r ->
           match r.Rumor_core.Median_counter.completion_round with
           | Some c -> fin c
           | None -> fin r.Rumor_core.Median_counter.rounds)
         mc)
  in
  Table.add_row t
    [
      "median-counter [25] (adaptive)";
      Printf.sprintf "%.1f" mc_tx.Summary.mean;
      Printf.sprintf "%.1f" mc_done.Summary.mean;
      "yes (counters only)";
    ];
  Table.print t

(* A5: the algorithm across topologies. *)
let a5 () =
  section "A5" "extension: topology zoo (where does the schedule generalise?)";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let topologies =
    [
      ( "G(n,8)",
        fun rng -> Regular.sample_connected ~rng ~n ~d Regular.Pairing );
      ( "hypercube",
        fun _rng -> Rumor_gen.Classic.hypercube (Params.ceil_log2 n) );
      ( "small-world b=0.1",
        fun rng -> Rumor_gen.Smallworld.sample ~rng ~n ~k:4 ~beta:0.1 );
      ( "small-world b=0.9",
        fun rng -> Rumor_gen.Smallworld.sample ~rng ~n ~k:4 ~beta:0.9 );
      ( "pref-attach m=4",
        fun rng -> Rumor_gen.Preferential.sample ~rng ~n ~m:4 );
    ]
  in
  let t =
    Table.create
      ~columns:
        [
          ("topology", Table.Left);
          ("success", Table.Right);
          ("coverage", Table.Right);
          ("tx/node", Table.Right);
          ("completion", Table.Right);
        ]
  in
  List.iteri
    (fun i (name, graph_of) ->
      let results =
        Experiment.replicate_parallel ~domains:(domains ()) ~seed:(2200 + i) ~reps:(reps ()) (fun rng ->
            let g = graph_of rng in
            let params =
              Params.make ~alpha:2.0 ~n_estimate:(Graph.n g) ~d ()
            in
            Run.once ~rng ~graph:g ~protocol:(Algorithm.make params)
              ~source:(Run.random_source rng g) ())
      in
      let success =
        fin (List.length (List.filter Engine.success results))
        /. fin (List.length results)
      in
      let coverage =
        Summary.of_list
          (List.map
             (fun r -> fin r.Engine.informed /. fin r.Engine.population)
             results)
      in
      let tx =
        Summary.of_list
          (List.map
             (fun r -> fin (Engine.transmissions r) /. fin r.Engine.population)
             results)
      in
      let comp =
        Summary.of_list
          (List.map
             (fun r ->
               match r.Engine.completion_round with
               | Some c -> fin c
               | None -> fin r.Engine.rounds)
             results)
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f%%" (100. *. success);
          Printf.sprintf "%.4f" coverage.Summary.mean;
          Printf.sprintf "%.1f" tx.Summary.mean;
          Printf.sprintf "%.1f" comp.Summary.mean;
        ])
    topologies;
  Table.print t

(* A6: the deployment pipeline — bootstrap the overlay, estimate n,
   then broadcast with the estimated size. *)
let a6 () =
  section "A6" "extension: bootstrap + size estimation + broadcast, end to end";
  let n = if !quick then 2048 else 8192 in
  let d = 8 in
  let rng = Rng.create 2300 in
  let overlay = Rumor_p2p.Bootstrap.grow ~rng ~n ~d ~capacity:n () in
  let q = Rumor_p2p.Bootstrap.quality ~rng ~d overlay in
  Printf.printf
    "grown overlay: regular=%b connected=%b lambda2=%.2f (benchmark %.2f)\n"
    q.Rumor_p2p.Bootstrap.regular q.Rumor_p2p.Bootstrap.connected
    q.Rumor_p2p.Bootstrap.lambda2 q.Rumor_p2p.Bootstrap.ramanujan;
  let est = Rumor_p2p.Estimator.create ~rng ~overlay ~k:256 in
  let rounds = Rumor_p2p.Estimator.run ~rng est in
  let source = Rumor_p2p.Overlay.random_node overlay rng in
  let n_hat = Rumor_p2p.Estimator.estimate est ~node:source in
  Printf.printf
    "size estimation: %d gossip rounds, source's estimate %.0f (true %d, worst factor %.2f)\n"
    rounds n_hat n (Rumor_p2p.Estimator.worst_error est);
  let params =
    Params.make ~alpha:2.0 ~n_estimate:(max 4 (int_of_float n_hat)) ~d ()
  in
  let res =
    Engine.run ~rng
      ~topology:(Rumor_p2p.Overlay.to_topology overlay)
      ~protocol:(Algorithm.make params) ~sources:[ source ] ()
  in
  Printf.printf
    "broadcast with the estimated size: informed %d/%d in %d rounds, %.1f tx/node\n"
    res.Engine.informed res.Engine.population res.Engine.rounds
    (fin (Engine.transmissions res) /. fin n)

(* A7: transient partitions during a broadcast. *)
let a7 () =
  section "A7" "extension: transient network partitions";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let t =
    Table.create
      ~columns:
        [
          ("partition window", Table.Left);
          ("minority", Table.Right);
          ("coverage", Table.Right);
          ("success", Table.Right);
        ]
  in
  List.iteri
    (fun i (label, heal_round, fraction) ->
      let results =
        Experiment.replicate_parallel ~domains:(domains ()) ~seed:(2400 + i) ~reps:(reps ()) (fun rng ->
            let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
            let o = Rumor_p2p.Overlay.of_graph ~capacity:n g in
            let part =
              if fraction > 0. then
                Some (Rumor_p2p.Partition.split_random o ~rng ~fraction)
              else None
            in
            let params = Params.make ~alpha:2.0 ~n_estimate:n ~d () in
            Engine.run ~rng
              ~on_round_end:(fun r ->
                if r = heal_round then
                  match part with
                  | Some p -> Rumor_p2p.Partition.heal o p
                  | None -> ())
              ~topology:(Rumor_p2p.Overlay.to_topology o)
              ~protocol:(Algorithm.make params) ~sources:[ 0 ] ())
      in
      let coverage =
        Summary.of_list
          (List.map
             (fun r -> fin r.Engine.informed /. fin r.Engine.population)
             results)
      in
      let success =
        fin (List.length (List.filter Engine.success results))
        /. fin (List.length results)
      in
      Table.add_row t
        [
          label;
          Printf.sprintf "%.0f%%" (100. *. fraction);
          Printf.sprintf "%.4f" coverage.Summary.mean;
          Printf.sprintf "%.0f%%" (100. *. success);
        ])
    [
      ("none", 0, 0.);
      ("rounds 1-5, 10% cut off", 5, 0.1);
      ("rounds 1-10, 10% cut off", 10, 0.1);
      ("rounds 1-10, 30% cut off", 10, 0.3);
      ("never healed, 10% cut off", max_int, 0.1);
    ];
  Table.print t;
  print_endline
    "(a partition healed before the pull phase costs nothing; the schedule's\n\
    \ slack covers the minority side. An unhealed partition leaves it dark —\n\
    \ no oblivious algorithm can beat connectivity.)"

(* A8: random regular vs G(n,p) at the same average degree (related
   work [11], [13] analyses the dense Gnp regime). *)
let a8 () =
  section "A8" "extension: G(n,d) vs G(n,p) at equal average degree";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let t =
    Table.create
      ~columns:
        [
          ("model", Table.Left);
          ("success", Table.Right);
          ("coverage", Table.Right);
          ("tx/node", Table.Right);
        ]
  in
  let cases =
    [
      ( "G(n,8) regular",
        fun rng -> Regular.sample_connected ~rng ~n ~d Regular.Pairing );
      ( "G(n,p), p=8/(n-1)",
        fun rng ->
          Rumor_gen.Gnp.sample ~rng ~n ~p:(fin d /. fin (n - 1)) );
      ( "G(n,p), p=16/(n-1)",
        fun rng ->
          Rumor_gen.Gnp.sample ~rng ~n ~p:(2. *. fin d /. fin (n - 1)) );
    ]
  in
  List.iteri
    (fun i (name, graph_of) ->
      let results =
        Experiment.replicate_parallel ~domains:(domains ()) ~seed:(2500 + i) ~reps:(reps ()) (fun rng ->
            let g = graph_of rng in
            let params = Params.make ~alpha:2.0 ~n_estimate:n ~d () in
            Run.once ~rng ~graph:g ~protocol:(Algorithm.make params)
              ~source:(Run.random_source rng g) ())
      in
      let coverage =
        Summary.of_list
          (List.map
             (fun r -> fin r.Engine.informed /. fin r.Engine.population)
             results)
      in
      let success =
        fin (List.length (List.filter Engine.success results))
        /. fin (List.length results)
      in
      let tx =
        Summary.of_list
          (List.map (fun r -> fin (Engine.transmissions r) /. fin n) results)
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f%%" (100. *. success);
          Printf.sprintf "%.4f" coverage.Summary.mean;
          Printf.sprintf "%.1f" tx.Summary.mean;
        ])
    cases;
  Table.print t;
  print_endline
    "(sparse G(n,p) has isolated vertices (p below the connectivity threshold\n\
    \ log n / n factor), so full coverage is impossible there by design —\n\
    \ coverage counts the reachable fraction the protocol actually informs)"

(* A9: the rumor-mongering design space of Demers et al. [7]:
   residue vs traffic for coin/counter, blind/feedback. *)
let a9 () =
  section "A9" "extension: Demers rumor-mongering variants (residue vs traffic)";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let horizon = 30 * Params.ceil_log2 n in
  let t =
    Table.create
      ~columns:
        [
          ("variant", Table.Left);
          ("k", Table.Right);
          ("residue", Table.Right);
          ("tx/node", Table.Right);
          ("died by", Table.Right);
        ]
  in
  let measure name proto_of =
    List.iter
      (fun k ->
        let results =
          Experiment.replicate_parallel ~domains:(domains ()) ~seed:(2600 + k) ~reps:(reps ()) (fun rng ->
              run_once ~rng ~n ~d (proto_of ~rng ~k))
        in
        let residue =
          Summary.of_list
            (List.map
               (fun r ->
                 fin (r.Engine.population - r.Engine.informed)
                 /. fin r.Engine.population)
               results)
        in
        let tx =
          Summary.of_list
            (List.map (fun r -> fin (Engine.transmissions r) /. fin n) results)
        in
        let died =
          Summary.of_list (List.map (fun r -> fin r.Engine.rounds) results)
        in
        Table.add_row t
          [
            name;
            string_of_int k;
            Printf.sprintf "%.5f" residue.Summary.mean;
            Printf.sprintf "%.1f" tx.Summary.mean;
            Printf.sprintf "%.0f" died.Summary.mean;
          ])
      [ 1; 2; 4 ]
  in
  measure "blind coin" (fun ~rng ~k ->
      Rumor_core.Feedback.blind_coin ~rng ~k ~horizon ());
  measure "blind counter" (fun ~rng:_ ~k ->
      Rumor_core.Feedback.blind_counter ~k ~horizon ());
  measure "feedback coin" (fun ~rng ~k ->
      Rumor_core.Feedback.feedback_coin ~rng ~k ~horizon ());
  measure "feedback counter" (fun ~rng:_ ~k ->
      Rumor_core.Feedback.feedback_counter ~k ~horizon ());
  Table.print t;
  print_endline
    "([7] reports counter < coin and feedback < blind in residue at similar\n\
    \ traffic; all variants are adaptive and need no estimate of n)"

(* A10: does anything change without lockstep rounds? Asynchronous
   (Poisson-clock) execution vs the synchronous model. *)
let a10 () =
  section "A10" "extension: synchronous rounds vs Poisson clocks";
  let n = if !quick then 4096 else 16384 in
  let d = 8 in
  let t =
    Table.create
      ~columns:
        [
          ("protocol", Table.Left);
          ("mode", Table.Left);
          ("completion", Table.Right);
          ("tx/node", Table.Right);
          ("coverage", Table.Right);
        ]
  in
  let add_row name mode completion tx coverage =
    Table.add_row t
      [
        name;
        mode;
        Printf.sprintf "%.1f" completion;
        Printf.sprintf "%.1f" tx;
        Printf.sprintf "%.4f" coverage;
      ]
  in
  let protocols =
    [
      ( "push",
        fun () -> Baselines.push ~horizon:(20 * Params.ceil_log2 n) () );
      ("bef (alpha=3)", fun () ->
        Algorithm.make (Params.make ~alpha:3.0 ~n_estimate:n ~d ()));
    ]
  in
  List.iteri
    (fun i (name, proto_of) ->
      let sync =
        Experiment.replicate_parallel ~domains:(domains ()) ~seed:(2700 + i)
          ~reps:(reps ()) (fun rng ->
            run_once ~stop:(i = 0) ~rng ~n ~d (proto_of ()))
      in
      let sync_completion =
        Summary.of_list
          (List.map
             (fun r ->
               match r.Engine.completion_round with
               | Some c -> fin c
               | None -> fin r.Engine.rounds)
             sync)
      in
      let sync_tx =
        Summary.of_list
          (List.map (fun r -> fin (Engine.transmissions r) /. fin n) sync)
      in
      let sync_cov =
        Summary.of_list
          (List.map (fun r -> fin r.Engine.informed /. fin n) sync)
      in
      add_row name "sync rounds" sync_completion.Summary.mean
        sync_tx.Summary.mean sync_cov.Summary.mean;
      let async =
        Experiment.replicate_parallel ~domains:(domains ()) ~seed:(2800 + i)
          ~reps:(reps ()) (fun rng ->
            let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
            Rumor_sim.Async.run ~stop_when_complete:(i = 0) ~rng
              ~topology:(Topology.of_graph g) ~protocol:(proto_of ())
              ~sources:[ 0 ] ())
      in
      let async_completion =
        Summary.of_list
          (List.map
             (fun r ->
               match r.Rumor_sim.Async.completion_time with
               | Some tt -> tt
               | None -> r.Rumor_sim.Async.time)
             async)
      in
      let async_tx =
        Summary.of_list
          (List.map
             (fun r -> fin r.Rumor_sim.Async.transmissions /. fin n)
             async)
      in
      let async_cov =
        Summary.of_list
          (List.map (fun r -> fin r.Rumor_sim.Async.informed /. fin n) async)
      in
      add_row name "poisson clocks" async_completion.Summary.mean
        async_tx.Summary.mean async_cov.Summary.mean)
    protocols;
  Table.print t;
  print_endline
    "(completion is rounds vs continuous time units — one unit = one expected\n\
    \ activation per node; the schedule survives desynchronisation with a\n\
    \ widened constant, losing only the lockstep phase boundaries)"

(* A11: chaos soak — randomised fault/churn/repair configurations with
   the kernel invariant monitor on every round boundary. The
   bench-grade twin of `rumor chaos`: zero violations expected; the
   telemetry records how much of the config space one seed covers, so
   a regression that breaks an invariant shows up as failures > 0 in
   the record (and fails the CI smoke independently). *)
let a11 () =
  section "A11" "extension: chaos soak over random fault configurations";
  let configs = if !quick then 12 else 48 in
  let rng = Rng.create 4242 in
  let axes (s : Scenario.t) =
    let open Scenario in
    let on = ref [] in
    let flag name b = if b then on := name :: !on in
    flag "loss" (s.loss > 0. || s.call_failure > 0.);
    flag "burst" (s.burst_loss > 0.);
    flag "crash" (s.crash_rate > 0.);
    flag "strike" (s.crash_adversary <> "none");
    flag "partition" (s.partition_round > 0);
    flag "churn" (s.join_prob > 0. || s.leave_prob > 0.);
    flag "repair" (s.max_epochs > 0);
    flag "estimate" (s.n_error <> 1.);
    match List.rev !on with [] -> "clean" | l -> String.concat "+" l
  in
  let t =
    Table.create
      ~columns:
        [
          ("config", Table.Right);
          ("n", Table.Right);
          ("protocol", Table.Left);
          ("axes", Table.Left);
          ("rounds", Table.Right);
          ("coverage", Table.Right);
          ("status", Table.Left);
        ]
  in
  let failures = ref 0 and checked = ref 0 and faulty = ref 0 in
  for i = 1 to configs do
    let s = Chaos.sample rng in
    let o = Chaos.run_one s in
    checked := !checked + o.Chaos.checked;
    let ax = axes s in
    if ax <> "clean" then incr faulty;
    let status =
      if Chaos.failed o then begin
        incr failures;
        "FAIL"
      end
      else "ok"
    in
    Table.add_row t
      [
        string_of_int i;
        string_of_int s.Scenario.n;
        s.Scenario.protocol;
        ax;
        string_of_int o.Chaos.rounds;
        Printf.sprintf "%.3f" o.Chaos.coverage;
        status;
      ];
    record_point
      (Json.Obj
         [
           ("n", Json.Int s.Scenario.n);
           ("protocol", Json.String s.Scenario.protocol);
           ("axes", Json.String ax);
           ("digest", Json.String o.Chaos.digest);
           ("rounds", Json.Int o.Chaos.rounds);
           ("coverage", Json.Float o.Chaos.coverage);
           ("violations", Json.Int o.Chaos.violation_count);
         ])
  done;
  Table.print t;
  Printf.printf
    "(%d configs: %d with at least one fault axis on, %d round boundaries\n\
    \ checked by the invariant monitor, %d violation(s))\n"
    configs !faulty !checked !failures;
  record "configs" (Json.Int configs);
  record "faulty_configs" (Json.Int !faulty);
  record "rounds_checked" (Json.Int !checked);
  record "failures" (Json.Int !failures)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "MICRO" "bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let rng = Rng.create 1700 in
  let n = 16384 and d = 8 in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let scratch = Array.make 4 0 in
  let tests =
    [
      Test.make ~name:"regular-gen-n16k-d8"
        (Staged.stage (fun () ->
             ignore (Regular.sample ~rng ~n ~d Regular.Pairing)));
      Test.make ~name:"distinct-4-of-8"
        (Staged.stage (fun () ->
             ignore (Rng.distinct_into rng ~bound:8 ~k:4 scratch)));
      Test.make ~name:"broadcast-bef-n16k"
        (Staged.stage (fun () ->
             ignore
               (Run.once ~rng ~graph:g
                  ~protocol:(Algorithm.make (Params.make ~n_estimate:n ~d ()))
                  ~source:0 ())));
      Test.make ~name:"lambda2-n16k-30iters"
        (Staged.stage (fun () -> ignore (Spectral.lambda2 g ~rng ~iters:30)));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("E0", e0);
    ( "E1",
      matrix_experiment ~quick_twin:"matrix_ci.txt" ~postlude:e1_postlude
        [ "matrix_e1.txt" ] );
    ("E3", e3);
    ("E4", e4);
    ("E5", matrix_experiment [ "matrix_e5.txt" ]);
    ("E6", matrix_experiment [ "matrix_e6.txt" ]);
    ("E7", matrix_experiment [ "matrix_e7.txt"; "matrix_crash.txt" ]);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", matrix_experiment [ "matrix_e11.txt" ]);
    ("E12", e12);
    ("A1", matrix_experiment [ "matrix_a1.txt" ]);
    ("A2", a2);
    ("A3", a3);
    ("A4", a4);
    ("A5", a5);
    ("A6", a6);
    ("A7", a7);
    ("A8", a8);
    ("A9", a9);
    ("A10", a10);
    ("A11", a11);
    ( "A12",
      matrix_experiment ~quick_twin:"matrix_ci_a12.txt" [ "matrix_a12.txt" ] );
    ( "A13",
      matrix_experiment ~quick_twin:"matrix_ci_a13.txt" [ "matrix_a13.txt" ] );
    ("MICRO", micro);
  ]

(* Best-effort git metadata so a bench record can be tied back to the
   commit that produced it. *)
let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Json.String line
    | _ -> Json.Null
  with _ -> Json.Null

let () =
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse_args acc rest
    | [ "--json" ] ->
        prerr_endline "main.exe: --json requires a FILE argument";
        exit 2
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse_args acc rest
    | [ "--reps" ] ->
        prerr_endline "main.exe: --reps requires a positive integer";
        exit 2
    | "--reps" :: v :: rest -> (
        match int_of_string_opt v with
        | Some r when r >= 1 ->
            reps_override := Some r;
            parse_args acc rest
        | _ ->
            prerr_endline "main.exe: --reps requires a positive integer";
            exit 2)
    | [ "--domains" ] ->
        prerr_endline "main.exe: --domains requires a positive integer";
        exit 2
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            domains_flag := d;
            parse_args acc rest
        | _ ->
            prerr_endline "main.exe: --domains requires a positive integer";
            exit 2)
    | a :: rest -> parse_args (a :: acc) rest
  in
  let args = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] | [ "all" ] -> all_experiments
    | names ->
        List.filter
          (fun (id, _) ->
            List.exists
              (fun a -> String.uppercase_ascii a = id || (a = "E2" && id = "E1"))
              names)
          all_experiments
  in
  Printf.printf "rumor experiment harness (%s mode, %d repetitions, %d domains)\n"
    (if !quick then "quick" else "full")
    (reps ()) (domains ());
  (* The whole run is interruptible: SIGINT/SIGTERM finish the
     repetition in flight, skip the remaining experiments, and the
     partial document below is flushed with [truncated: true] so a
     half-record is never mistaken for a full one. *)
  let records =
    Experiment.with_interrupt_signals (fun () ->
        List.filter_map
          (fun (id, f) ->
            if Experiment.interrupted () then begin
              Printf.printf "  %s skipped (interrupted)\n%!" id;
              None
            end
            else begin
              current_points := [];
              current_scalars := [];
              current_title := "";
              let (), span = Metrics.timed f in
              let span_fields =
                match Metrics.span_to_json span with
                | Json.Obj fs -> fs
                | _ -> []
              in
              let data =
                (match !current_points with
                | [] -> []
                | pts -> [ ("points", Json.List (List.rev pts)) ])
                @ List.rev !current_scalars
              in
              Some
                (Json.Obj
                   (("id", Json.String id)
                    :: ("title", Json.String !current_title)
                    :: span_fields
                   @ [ ("data", Json.Obj data) ]))
            end)
          selected)
  in
  match !json_path with
  | None -> ()
  | Some path ->
      let top =
        Json.Obj
          [
            ("schema", Json.String "rumor-bench/1");
            ("created_unix", Json.Float (Unix.gettimeofday ()));
            ("git", git_describe ());
            ("ocaml", Json.String Sys.ocaml_version);
            ("word_size", Json.Int Sys.word_size);
            ( "argv",
              Json.List
                (List.map (fun a -> Json.String a) (Array.to_list Sys.argv)) );
            ("quick", Json.Bool !quick);
            ("reps", Json.Int (reps ()));
            ("domains", Json.Int (domains ()));
            ("truncated", Json.Bool (Experiment.interrupted ()));
            ("experiments", Json.List records);
          ]
      in
      let oc = open_out path in
      Json.to_channel ~minify:false oc top;
      close_out oc;
      Printf.printf "\nwrote %s (%d experiment records%s)\n" path
        (List.length records)
        (if Experiment.interrupted () then ", truncated" else "")
