module Rng = Rumor_rng.Rng
module Engine = Rumor_sim.Engine
module Fault = Rumor_sim.Fault
module Topology = Rumor_sim.Topology
module Params = Rumor_core.Params
module Algorithm = Rumor_core.Algorithm
module Baselines = Rumor_core.Baselines
module Repair = Rumor_core.Repair
module Overlay = Rumor_p2p.Overlay
module Churn = Rumor_p2p.Churn
module Summary = Rumor_stats.Summary
module Experiment = Rumor_stats.Experiment

type t = {
  seed : int;
  n : int;
  d : int;
  topology : string;
  protocol : string;
  alpha : float;
  fanout : int;
  loss : float;
  call_failure : float;
  burst_loss : float;
  burst_len : float;
  crash_rate : float;
  recover_rate : float;
  crash_adversary : string;
  crash_count : int;
  crash_round : int;
  strike_every : int;
  partition_round : int;
  heal_round : int;
  partition_fraction : float;
  join_prob : float;
  leave_prob : float;
  churn_rate : float;
  n_error : float;
  repair_timeout : int;
  repair_backoff : int;
  max_epochs : int;
  stop : string;
  source : string;
  reps : int;
  domains : int;
  packed : bool;
}

let default =
  {
    seed = 1;
    n = 16384;
    d = 8;
    topology = "regular";
    protocol = "bef";
    alpha = 1.0;
    fanout = 4;
    loss = 0.;
    call_failure = 0.;
    burst_loss = 0.;
    burst_len = 4.;
    crash_rate = 0.;
    recover_rate = 0.;
    crash_adversary = "none";
    crash_count = 0;
    crash_round = 1;
    strike_every = 0;
    partition_round = 0;
    heal_round = 0;
    partition_fraction = 0.5;
    join_prob = 0.;
    leave_prob = 0.;
    churn_rate = -1.;
    n_error = 1.;
    repair_timeout = 2;
    repair_backoff = 8;
    max_epochs = 0;
    stop = "auto";
    source = "random";
    reps = 5;
    domains = 0;
    packed = true;
  }

let topologies =
  [
    "regular"; "hypercube"; "torus"; "complete"; "gnp"; "product-k5";
    "implicit-regular"; "implicit-hypercube"; "implicit-chords";
  ]

let is_implicit topology =
  String.length topology >= 9 && String.sub topology 0 9 = "implicit-"

(* Materialising a graph above this size means hundreds of MB of stub
   buffer and CSR before the run even starts; beyond it only the
   implicit views are viable. Sampling 2^22 nodes at d = 8 already
   peaks near 480 MiB (a 128 MiB stub buffer next to the 288 MiB CSR
   and the 32 MiB degree array), and the CSR stays for the run. *)
let materialise_cap = 1 lsl 22

let protocols =
  [ "bef"; "bef-seq"; "push"; "pull"; "push-pull"; "push-pull-age";
    "quasirandom" ]

let adversaries = [ "none"; "random"; "degree"; "frontier" ]

(* --- single-key assignment ---

   [set_key] is the whole scalar surface of the scenario language: one
   key, one raw value string, range checks included. It carries no line
   information so the matrix runner can reuse it to build sweep cells;
   [parse] wraps its errors with line numbers. *)

let set_key acc ~key ~value : (t, string) result =
  let parse_int v k =
    match int_of_string_opt (String.trim v) with
    | Some x -> k x
    | None -> Error "expected an integer"
  in
  let parse_float v k =
    match float_of_string_opt (String.trim v) with
    | Some x -> k x
    | None -> Error "expected a number"
  in
  let err msg = Error msg in
  let ok acc = Ok acc in
  match key with
  | "seed" -> parse_int value (fun x -> ok { acc with seed = x })
  | "n" ->
      parse_int value (fun x ->
          if x < 4 then err "n must be >= 4" else ok { acc with n = x })
  | "d" ->
      parse_int value (fun x ->
          if x < 1 then err "d must be >= 1" else ok { acc with d = x })
  | "topology" ->
      if List.mem value topologies then ok { acc with topology = value }
      else err ("unknown topology: " ^ value)
  | "protocol" ->
      if List.mem value protocols then ok { acc with protocol = value }
      else err ("unknown protocol: " ^ value)
  | "alpha" ->
      parse_float value (fun x ->
          if x <= 0. then err "alpha must be positive"
          else ok { acc with alpha = x })
  | "fanout" ->
      parse_int value (fun x ->
          if x < 1 then err "fanout must be >= 1" else ok { acc with fanout = x })
  | "loss" ->
      parse_float value (fun x ->
          if x < 0. || x > 1. then err "loss must be in [0, 1]"
          else ok { acc with loss = x })
  | "call_failure" ->
      parse_float value (fun x ->
          if x < 0. || x > 1. then err "call_failure must be in [0, 1]"
          else ok { acc with call_failure = x })
  | "burst_loss" ->
      parse_float value (fun x ->
          if x < 0. || x >= 1. then err "burst_loss must be in [0, 1)"
          else ok { acc with burst_loss = x })
  | "burst_len" ->
      parse_float value (fun x ->
          if x < 1. then err "burst_len must be >= 1"
          else ok { acc with burst_len = x })
  | "crash_rate" ->
      parse_float value (fun x ->
          if x < 0. || x > 1. then err "crash_rate must be in [0, 1]"
          else ok { acc with crash_rate = x })
  | "recover_rate" ->
      parse_float value (fun x ->
          if x < 0. || x > 1. then err "recover_rate must be in [0, 1]"
          else ok { acc with recover_rate = x })
  | "crash_adversary" ->
      if List.mem value adversaries then ok { acc with crash_adversary = value }
      else err ("unknown crash_adversary: " ^ value)
  | "crash_count" ->
      parse_int value (fun x ->
          if x < 0 then err "crash_count must be >= 0"
          else ok { acc with crash_count = x })
  | "crash_round" ->
      parse_int value (fun x ->
          if x < 1 then err "crash_round must be >= 1"
          else ok { acc with crash_round = x })
  | "strike_every" ->
      parse_int value (fun x ->
          if x < 0 then err "strike_every must be >= 0 (0 = one-shot)"
          else ok { acc with strike_every = x })
  | "partition_round" ->
      parse_int value (fun x ->
          if x < 0 then err "partition_round must be >= 0 (0 = off)"
          else ok { acc with partition_round = x })
  | "heal_round" ->
      parse_int value (fun x ->
          if x < 0 then err "heal_round must be >= 0"
          else ok { acc with heal_round = x })
  | "partition_fraction" ->
      parse_float value (fun x ->
          if x < 0. || x > 1. then err "partition_fraction must be in [0, 1]"
          else ok { acc with partition_fraction = x })
  | "join_prob" ->
      parse_float value (fun x ->
          if x < 0. || x > 1. then err "join_prob must be in [0, 1]"
          else ok { acc with join_prob = x })
  | "leave_prob" ->
      parse_float value (fun x ->
          if x < 0. || x > 1. then err "leave_prob must be in [0, 1]"
          else ok { acc with leave_prob = x })
  | "churn_rate" ->
      parse_float value (fun x ->
          if x < 0. then err "churn_rate must be >= 0"
          else ok { acc with churn_rate = x })
  | "n_error" ->
      parse_float value (fun x ->
          if x <= 0. then err "n_error must be positive"
          else ok { acc with n_error = x })
  | "repair_timeout" ->
      parse_int value (fun x ->
          if x < 0 then err "repair_timeout must be >= 0"
          else ok { acc with repair_timeout = x })
  | "repair_backoff" ->
      parse_int value (fun x ->
          if x < 1 then err "repair_backoff must be >= 1"
          else ok { acc with repair_backoff = x })
  | "max_epochs" ->
      parse_int value (fun x ->
          if x < 0 then err "max_epochs must be >= 0"
          else ok { acc with max_epochs = x })
  | "stop" -> begin
      match value with
      | "auto" | "true" | "false" -> ok { acc with stop = value }
      | _ -> err "stop must be auto, true or false"
    end
  | "source" -> begin
      match value with
      | "random" | "first" -> ok { acc with source = value }
      | _ -> err "source must be random or first"
    end
  | "reps" ->
      parse_int value (fun x ->
          if x < 1 then err "reps must be >= 1" else ok { acc with reps = x })
  | "domains" ->
      parse_int value (fun x ->
          if x < 0 then err "domains must be >= 0 (0 = auto)"
          else ok { acc with domains = x })
  | "packed" -> begin
      match value with
      | "true" -> ok { acc with packed = true }
      | "false" -> ok { acc with packed = false }
      | _ -> err "packed must be true or false"
    end
  | other -> err ("unknown key: " ^ other)

(* Shortest decimal that round-trips, so a re-parsed scenario carries
   the same floats bit for bit. *)
let float_repr x =
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* The inverse of [set_key], one line per key in record order.
   [churn_rate] is written only when set: its "unset" value is
   negative, which [set_key] rejects. *)
let to_text t =
  let b = Buffer.create 512 in
  let sk k v = Buffer.add_string b (Printf.sprintf "%s = %s\n" k v) in
  let ik k v = sk k (string_of_int v) in
  let fk k v = sk k (float_repr v) in
  ik "seed" t.seed;
  ik "n" t.n;
  ik "d" t.d;
  sk "topology" t.topology;
  sk "protocol" t.protocol;
  fk "alpha" t.alpha;
  ik "fanout" t.fanout;
  fk "loss" t.loss;
  fk "call_failure" t.call_failure;
  fk "burst_loss" t.burst_loss;
  fk "burst_len" t.burst_len;
  fk "crash_rate" t.crash_rate;
  fk "recover_rate" t.recover_rate;
  sk "crash_adversary" t.crash_adversary;
  ik "crash_count" t.crash_count;
  ik "crash_round" t.crash_round;
  ik "strike_every" t.strike_every;
  ik "partition_round" t.partition_round;
  ik "heal_round" t.heal_round;
  fk "partition_fraction" t.partition_fraction;
  fk "join_prob" t.join_prob;
  fk "leave_prob" t.leave_prob;
  if t.churn_rate >= 0. then fk "churn_rate" t.churn_rate;
  fk "n_error" t.n_error;
  ik "repair_timeout" t.repair_timeout;
  ik "repair_backoff" t.repair_backoff;
  ik "max_epochs" t.max_epochs;
  sk "stop" t.stop;
  sk "source" t.source;
  ik "reps" t.reps;
  ik "domains" t.domains;
  sk "packed" (string_of_bool t.packed);
  Buffer.contents b

(* Whether the generator behind a topology can build
   (n, d). A pairing with d <= 2 is a union of paths and cycles, almost
   never connected at scale, so [regular] needs 3 <= d < n with n * d
   even; [product-k5] needs the same of its base graph; [gnp]'s edge
   probability d / (n - 1) must be at most 1. The matching views read
   16-bit round tables, which cover n <= 2^32. *)
let check_topology ~topology ~n ~d =
  let pairing ~n ~d = d >= 3 && Rumor_gen.Regular.feasible ~n ~d in
  let refuse need =
    Error
      (Printf.sprintf "topology %s needs %s (got n = %d, d = %d)" topology
         need n d)
  in
  match topology with
  | "regular" when not (pairing ~n ~d) -> refuse "3 <= d < n with n * d even"
  | "product-k5" when not (pairing ~n:(max 4 (n / 5)) ~d:(d - 4)) ->
      refuse "3 <= d - 4 < max 4 (n / 5) with max 4 (n / 5) * (d - 4) even"
  | "gnp" when d > n - 1 -> refuse "d <= n - 1"
  | ("implicit-regular" | "implicit-chords") when n > 1 lsl 32 ->
      refuse "n <= 2^32"
  | _ -> Ok ()

(* Cross-key checks that only make sense once the whole file is read. *)
let validate acc : (t, string) result =
  if acc.burst_loss > acc.burst_len /. (acc.burst_len +. 1.) then
    Error
      (Printf.sprintf
         "burst_loss %.2f is unrealisable with burst_len %.1f (max %.2f)"
         acc.burst_loss acc.burst_len
         (acc.burst_len /. (acc.burst_len +. 1.)))
  else if acc.partition_round > 0 && acc.heal_round <= acc.partition_round then
    Error
      (Printf.sprintf "heal_round %d must be greater than partition_round %d"
         acc.heal_round acc.partition_round)
  else if
    is_implicit acc.topology
    && (acc.join_prob > 0. || acc.leave_prob > 0. || acc.churn_rate >= 0.)
  then
    Error
      (Printf.sprintf
         "churn (join_prob/leave_prob/churn_rate) needs a materialised \
          overlay; topology %s computes its edges implicitly"
         acc.topology)
  else if acc.churn_rate >= 0. && (acc.join_prob > 0. || acc.leave_prob > 0.)
  then
    Error
      "churn_rate (session churn at rate * n ops/round) and \
       join_prob/leave_prob (one probabilistic session per round) are \
       alternative churn models; set one or the other"
  else if
    (acc.topology = "implicit-regular"
    || (acc.topology = "implicit-chords" && acc.d > 2))
    && acc.n land 1 = 1
  then
    Error
      (Printf.sprintf
         "topology %s pairs nodes into perfect matchings and needs an even n \
          (got %d)"
         acc.topology acc.n)
  else if not (is_implicit acc.topology) && acc.n > materialise_cap then
    Error
      (Printf.sprintf
         "n = %d exceeds the materialised-graph cap of %d nodes; use \
          implicit-regular, implicit-hypercube or implicit-chords for runs \
          at this scale"
         acc.n materialise_cap)
  else
    Result.map
      (fun () -> acc)
      (check_topology ~topology:acc.topology ~n:acc.n ~d:acc.d)

(* Scenario files are plain text but not always written on the host
   that runs them: a trailing '\r' (CRLF files) and trailing blanks on
   a [key = value] line are stripped before any token is cut, so the
   same file parses on every platform. *)
let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go acc seen i = function
    | [] -> validate acc
    | raw :: rest -> begin
        let line = i + 1 in
        (* Every message names the line and quotes its raw text, so a
           bad value in a long file is findable without counting. *)
        let err msg =
          Error
            (Printf.sprintf "line %d: %s (in %S)" line msg (String.trim raw))
        in
        let s = String.trim (strip_comment raw) in
        if s = "" then go acc seen (i + 1) rest
        else
          match String.index_opt s '=' with
          | None -> err "expected 'key = value'"
          | Some eq -> begin
              let key = String.trim (String.sub s 0 eq) in
              let value =
                String.trim (String.sub s (eq + 1) (String.length s - eq - 1))
              in
              match List.assoc_opt key seen with
              | Some first ->
                  err
                    (Printf.sprintf
                       "duplicate key '%s' (already set on line %d)" key first)
              | None -> begin
                  match set_key acc ~key ~value with
                  | Error msg -> err msg
                  | Ok acc -> go acc ((key, line) :: seen) (i + 1) rest
                end
            end
      end
  in
  go default [] 0 lines

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          parse (really_input_string ic len))

let make_graph ~rng ~topology ~n ~d =
  if is_implicit topology then
    failwith
      (Printf.sprintf
         "topology %S is implicit and is never materialised; run it directly \
          (scenario key [topology = %s] or rumor broadcast --topology %s)"
         topology topology topology);
  if n > materialise_cap then
    failwith
      (Printf.sprintf
         "n = %d exceeds the materialised-graph cap of %d nodes; use an \
          implicit topology (implicit-regular, implicit-hypercube, \
          implicit-chords), which the packed per-node kernel state \
          carries to n = 10^8"
         n materialise_cap);
  match topology with
  | "regular" ->
      Rumor_gen.Regular.sample_connected ~rng ~n ~d Rumor_gen.Regular.Pairing
  | "hypercube" -> Rumor_gen.Classic.hypercube (Params.ceil_log2 n)
  | "torus" ->
      let side = max 3 (int_of_float (sqrt (float_of_int n))) in
      Rumor_gen.Classic.torus2d side side
  | "complete" -> Rumor_gen.Classic.complete n
  | "gnp" ->
      Rumor_gen.Gnp.sample ~rng ~n ~p:(float_of_int d /. float_of_int (n - 1))
  | "product-k5" ->
      let base =
        Rumor_gen.Regular.sample_connected ~rng ~n:(max 4 (n / 5))
          ~d:(max 1 (d - 4)) Rumor_gen.Regular.Pairing
      in
      Rumor_gen.Product.with_clique base ~k:5
  | other -> failwith (Printf.sprintf "unknown topology %S" other)

(* One 62-bit seed per implicit view, drawn from the replication
   stream, so every repetition sees a fresh random graph exactly as
   [make_graph] samples a fresh one. *)
let draw_seed rng = Int64.to_int (Rng.bits64 rng) land max_int

let make_topology ~rng ~topology ~n ~d =
  match topology with
  | "implicit-regular" -> Topology.implicit_regular ~seed:(draw_seed rng) ~n ~d
  | "implicit-hypercube" -> Topology.implicit_hypercube ~n
  | "implicit-chords" -> Topology.implicit_chords ~seed:(draw_seed rng) ~n ~d
  | other -> Topology.of_graph (make_graph ~rng ~topology:other ~n ~d)

let make_protocol ?n_estimate ~protocol ~n ~d ~alpha ~fanout () =
  let est = match n_estimate with Some e -> max 4 e | None -> n in
  let params = Params.make ~alpha ~fanout ~n_estimate:est ~d () in
  let lg = Params.ceil_log2 (max n 2) in
  let horizon = 20 * lg in
  match protocol with
  | "bef" -> Algorithm.make params
  | "bef-seq" -> Algorithm.sequentialised params
  | "push" -> Baselines.push ~fanout:1 ~horizon ()
  | "pull" -> Baselines.pull ~fanout:1 ~horizon ()
  | "push-pull" -> Baselines.push_pull ~fanout:1 ~horizon ()
  | "push-pull-age" ->
      Baselines.push_pull_age ~fanout:1 ~push_rounds:lg ~total_rounds:(3 * lg)
        ()
  | "quasirandom" -> Baselines.quasirandom ~fanout:1 ~horizon
  | other -> failwith (Printf.sprintf "unknown protocol %S" other)

let protocol_name t =
  (make_protocol ~protocol:t.protocol ~n:t.n ~d:t.d ~alpha:t.alpha
     ~fanout:t.fanout ())
    .Rumor_sim.Protocol.name

(* bef and bef-seq carry their own phase schedule (and push-pull-age
   its age-out), so they run to quiescence; the open-ended baselines
   stop at full coverage to keep their horizons from dominating. *)
let effective_stop t =
  match t.stop with
  | "true" -> true
  | "false" -> false
  | _ ->
      t.protocol <> "bef" && t.protocol <> "bef-seq"
      && t.protocol <> "push-pull-age"

let fault_plan t =
  let burst =
    if t.burst_loss > 0. then
      Some (Fault.burst ~loss:t.burst_loss ~burst_len:t.burst_len)
    else None
  in
  let strike =
    if t.crash_adversary <> "none" && t.crash_count > 0 then
      let adversary =
        match t.crash_adversary with
        | "random" -> Fault.Random_nodes
        | "degree" -> Fault.Highest_degree
        | "frontier" -> Fault.Frontier
        | other -> failwith (Printf.sprintf "unknown crash_adversary %S" other)
      in
      Some
        (Fault.strike ~adversary ~every:t.strike_every ~at_round:t.crash_round
           ~count:t.crash_count ())
    else None
  in
  let partition =
    if t.partition_round > 0 then
      Some
        (Fault.partition ~fraction:t.partition_fraction
           ~split_at:t.partition_round ~heal_at:t.heal_round ())
    else None
  in
  Fault.plan ~call_failure:t.call_failure ~link_loss:t.loss ?burst
    ~crash_rate:t.crash_rate ~recover_rate:t.recover_rate ?strike ?partition ()

let repair_config scenario =
  if scenario.max_epochs > 0 then
    Some
      (Repair.config ~timeout:scenario.repair_timeout
         ~backoff_cap:(max scenario.repair_backoff 1)
         ~max_epochs:scenario.max_epochs ~n:scenario.n ())
  else None

let churn_on t = t.churn_rate >= 0. || t.join_prob > 0. || t.leave_prob > 0.

(* Session churn mutates an overlay copy of [g]. Extra capacity leaves
   room for joins beyond the initial size; the ids handed out for joins
   are collected for the engine's [reset] hook, which restarts them
   uninformed. *)
let churn_overlay scenario ~rng ~n_real g =
  let o = Overlay.of_graph ~capacity:(2 * n_real) g in
  let joined = ref [] in
  let session ~join_prob ~leave_prob =
    let ev = Churn.session o ~rng ~d:scenario.d ~join_prob ~leave_prob () in
    Option.iter (fun v -> joined := v :: !joined) ev.Churn.joined
  in
  let on_round_end _ =
    if scenario.churn_rate >= 0. then
      (* Rate churn: churn_rate * n symmetric sessions per round, the
         model of the self-healing frontier (E8). *)
      let ops = int_of_float (scenario.churn_rate *. float_of_int n_real) in
      for _ = 1 to ops do
        session ~join_prob:0.5 ~leave_prob:0.5
      done
    else
      session ~join_prob:scenario.join_prob ~leave_prob:scenario.leave_prob
  in
  let reset () =
    let l = !joined in
    joined := [];
    l
  in
  (o, on_round_end, reset)

(* The single dispatch from a scenario to the kernel. The draw order
   (graph or view sample, then source, then the broadcast) is a
   compatibility contract: a cell run here must be bit-identical to the
   same seed run through [run] or the historical bench loops. *)
let run_rep ?monitor ?(collect_trace = false) ?graph scenario rng =
  (* Implicit views build no graph: the kernel walks seed-derived
     neighbour functions, so that path scales to n = 10^7+. *)
  let graph, view =
    match graph with
    | Some g -> (Some g, Topology.of_graph g)
    | None when is_implicit scenario.topology ->
        ( None,
          make_topology ~rng ~topology:scenario.topology ~n:scenario.n
            ~d:scenario.d )
    | None ->
        let g =
          make_graph ~rng ~topology:scenario.topology ~n:scenario.n
            ~d:scenario.d
        in
        (Some g, Topology.of_graph g)
  in
  let n_real = view.Topology.capacity in
  let n_estimate =
    int_of_float (ceil (scenario.n_error *. float_of_int n_real))
  in
  let protocol =
    make_protocol ~n_estimate ~protocol:scenario.protocol ~n:n_real
      ~d:scenario.d ~alpha:scenario.alpha ~fanout:scenario.fanout ()
  in
  let sources =
    [ (if scenario.source = "first" then 0 else Rng.int rng n_real) ]
  in
  (* [validate] rejects churn on implicit views, which have no overlay
     to rewire. *)
  let churn =
    match graph with
    | Some g when churn_on scenario ->
        Some (churn_overlay scenario ~rng ~n_real g)
    | _ -> None
  in
  let topology, on_round_end, reset =
    match churn with
    | Some (o, on_round_end, reset) ->
        (Overlay.to_topology o, Some on_round_end, Some reset)
    | None -> (view, None, None)
  in
  let fault = fault_plan scenario in
  let packed = scenario.packed in
  let result =
    match repair_config scenario with
    | Some config ->
        Repair.self_heal ~fault ~collect_trace ?reset ?on_round_end ?monitor
          ~packed ~config ~rng ~topology ~protocol ~sources ()
    | None ->
        (* Repair runs with recovery amnesia on; without repair it is
           on exactly under churn. *)
        Engine.run ~fault ~collect_trace ~forget_on_recover:(churn <> None)
          ?reset ?on_round_end ~stop_when_complete:(effective_stop scenario)
          ?monitor ~packed ~rng ~topology ~protocol ~sources ()
  in
  (match churn with
  | Some (o, _, _) when not (Overlay.invariant o) ->
      failwith "churn left the overlay in an inconsistent state"
  | _ -> ());
  result

type report = {
  scenario : t;
  protocol_name : string;
  success_rate : float;
  coverage : Summary.t;
  tx_per_node : Summary.t;
  rounds : Summary.t;
  epochs : Summary.t;
  repair_tx_per_node : Summary.t;
}

let report_of_results scenario results =
  let of_metric f = Summary.of_list (List.map f results) in
  {
    scenario;
    protocol_name = protocol_name scenario;
    success_rate =
      float_of_int (List.length (List.filter Engine.success results))
      /. float_of_int (max 1 (List.length results));
    coverage = of_metric Engine.coverage;
    tx_per_node =
      of_metric (fun r ->
          float_of_int (Engine.transmissions r)
          /. float_of_int (max 1 r.Engine.population));
    rounds = of_metric (fun r -> float_of_int r.Engine.rounds);
    epochs = of_metric (fun r -> float_of_int (Engine.epochs_used r));
    repair_tx_per_node =
      of_metric (fun r ->
          if r.Engine.population = 0 then 0.
          else
            float_of_int (Engine.repair_tx r)
            /. float_of_int r.Engine.population);
  }

let run scenario =
  let domains =
    if scenario.domains >= 1 then scenario.domains
    else Experiment.default_domains ()
  in
  (* Bit-identical to sequential replication: streams are pre-forked
     per repetition. *)
  let results =
    Experiment.replicate_parallel ~domains ~seed:scenario.seed
      ~reps:scenario.reps (run_rep scenario)
  in
  report_of_results scenario results

let pp_report ppf r =
  let s = r.scenario in
  let faults = Buffer.create 64 in
  Buffer.add_string faults
    (Printf.sprintf "loss %.2f, call failure %.2f" s.loss s.call_failure);
  if s.burst_loss > 0. then
    Buffer.add_string faults
      (Printf.sprintf ", burst %.2f (len %.1f)" s.burst_loss s.burst_len);
  if s.crash_rate > 0. || s.recover_rate > 0. then
    Buffer.add_string faults
      (Printf.sprintf ", crash %.3f/recover %.3f" s.crash_rate s.recover_rate);
  if s.crash_adversary <> "none" && s.crash_count > 0 then
    Buffer.add_string faults
      (Printf.sprintf ", strike %s x%d @ round %d%s" s.crash_adversary
         s.crash_count s.crash_round
         (if s.strike_every > 0 then
            Printf.sprintf " (recurring every %d)" s.strike_every
          else ""));
  if s.partition_round > 0 then
    Buffer.add_string faults
      (Printf.sprintf ", partition rounds %d..%d (fraction %.2f)"
         s.partition_round s.heal_round s.partition_fraction);
  if s.join_prob > 0. || s.leave_prob > 0. then
    Buffer.add_string faults
      (Printf.sprintf ", churn join %.2f/leave %.2f" s.join_prob s.leave_prob);
  if s.churn_rate >= 0. then
    Buffer.add_string faults
      (Printf.sprintf ", churn rate %.3f n/round" s.churn_rate);
  let repair = Buffer.create 64 in
  if s.max_epochs > 0 then
    Buffer.add_string repair
      (Printf.sprintf "timeout %d, backoff cap %d, max epochs %d"
         s.repair_timeout s.repair_backoff s.max_epochs)
  else Buffer.add_string repair "off";
  Format.fprintf ppf
    "@[<v>protocol    %s@,topology    %s (n=%d, d=%d)@,faults      %s@,repair      %s@,n estimate  %.2f x n@,reps        %d (seed %d)@,success     %.0f%%@,coverage    %a@,tx/node     %a@,rounds      %a"
    r.protocol_name s.topology s.n s.d (Buffer.contents faults)
    (Buffer.contents repair) s.n_error s.reps s.seed (100. *. r.success_rate)
    Summary.pp r.coverage Summary.pp r.tx_per_node Summary.pp r.rounds;
  if s.max_epochs > 0 then
    Format.fprintf ppf "@,epochs      %a@,repair tx/n %a" Summary.pp r.epochs
      Summary.pp r.repair_tx_per_node;
  Format.fprintf ppf "@]"
