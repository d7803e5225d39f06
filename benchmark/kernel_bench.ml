(* Kernel workloads: repeated broadcasts of one scenario, broadcast [k]
   on the stream [Rng.fork (Rng.create seed) (k mod streams)], timed
   around the public calls [Scenario.make_graph]/[make_topology] +
   [make_protocol] (set-up) and [Engine.run]/[Repair.self_heal] (the
   broadcast). *)

module Rng = Rumor_rng.Rng
module Engine = Rumor_sim.Engine
module Topology = Rumor_sim.Topology
module Protocol = Rumor_sim.Protocol
module Selector = Rumor_sim.Selector
module Bitset = Rumor_sim.Bitset
module Repair = Rumor_core.Repair
module Algorithm = Rumor_core.Algorithm
module Scenario = Rumor_cli.Scenario
module Json = Rumor_obs.Json

let now_s = Metric.now_s

type setup = {
  topology : Topology.t;
  protocol : Algorithm.state Protocol.t;
  source : int;
  graph_s : float;  (** the graph or implicit view alone *)
  setup_s : float;  (** graph, protocol and source *)
}

(* Scenario.run_rep's draw order: graph (or view), then the source, then
   the broadcast — so a broadcast here is bit-identical to run_rep on
   the same stream, which the selftest checks. *)
let setup (sc : Scenario.t) rng =
  let t0 = now_s () in
  let topology =
    if Scenario.is_implicit sc.topology then
      Scenario.make_topology ~rng ~topology:sc.topology ~n:sc.n ~d:sc.d
    else
      Topology.of_graph
        (Scenario.make_graph ~rng ~topology:sc.topology ~n:sc.n ~d:sc.d)
  in
  let t1 = now_s () in
  let n_real = topology.Topology.capacity in
  let n_estimate = int_of_float (ceil (sc.n_error *. float_of_int n_real)) in
  let protocol =
    Scenario.make_protocol ~n_estimate ~protocol:sc.protocol ~n:n_real ~d:sc.d
      ~alpha:sc.alpha ~fanout:sc.fanout ()
  in
  let source = if sc.source = "first" then 0 else Rng.int rng n_real in
  { topology; protocol; source; graph_s = t1 -. t0; setup_s = now_s () -. t0 }

let repair_config (sc : Scenario.t) =
  if sc.max_epochs > 0 then
    Some
      (Repair.config ~timeout:sc.repair_timeout
         ~backoff_cap:(max sc.repair_backoff 1)
         ~max_epochs:sc.max_epochs ~n:sc.n ())
  else None

(* The traced repair path calls Engine.run_epochs itself so that each
   epoch's protocol, built inside Repair.strategy, is wrapped too; the
   traced-equals-untraced check pins it to Repair.self_heal. *)
let broadcast ?probe (sc : Scenario.t) s rng =
  let fault = Scenario.fault_plan sc and packed = sc.packed in
  let sources = [ s.source ] in
  let topology, protocol, measure =
    match probe with
    | None -> (s.topology, s.protocol, fun f -> f ())
    | Some p ->
        (Probe.topology p s.topology, Probe.protocol p s.protocol, Probe.measure p)
  in
  match (repair_config sc, probe) with
  | None, _ ->
      measure (fun () ->
          Engine.run ~fault ~stop_when_complete:(Scenario.effective_stop sc)
            ~packed ~rng ~topology ~protocol ~sources ())
  | Some config, None ->
      Repair.self_heal ~fault ~config ~packed ~rng ~topology ~protocol ~sources
        ()
  | Some config, Some p ->
      let capacity = topology.Topology.capacity in
      let repair ~epoch ~knows =
        let plan = Repair.strategy config ~rng ~capacity ~epoch ~knows in
        {
          plan with
          Engine.epoch_protocol = Probe.protocol p plan.Engine.epoch_protocol;
        }
      in
      measure (fun () ->
          Engine.run_epochs ~fault ~forget_on_recover:true ~packed
            ~max_epochs:config.Repair.max_epochs ~rng ~topology ~protocol
            ~repair ~sources ())

(* --- deterministic outputs: pinned, compared, checked --- *)

(* What expected.json pins per broadcast; completion_round is -1 when
   the main schedule never completed. *)
let outputs (r : Engine.result) =
  [
    ("rounds", r.rounds);
    ("completion_round", Option.value r.completion_round ~default:(-1));
    ("informed", r.informed);
    ("population", r.population);
    ("push_tx", r.push_tx);
    ("pull_tx", r.pull_tx);
    ("channels", r.channels);
    ("epochs", Engine.epochs_used r);
  ]

let outputs_to_json o = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) o)

let outputs_of_json = function
  | Json.Obj fields ->
      List.fold_right
        (fun (k, v) acc ->
          match (Json.to_int v, acc) with
          | Some x, Ok l -> Ok ((k, x) :: l)
          | None, _ -> Error (Printf.sprintf "expected.json: %S is not an integer" k)
          | _, Error e -> Error e)
        fields (Ok [])
  | _ -> Error "expected.json: a broadcast is not an object"

let same_knows a b =
  Bitset.length a = Bitset.length b
  && Bitset.cardinal a = Bitset.cardinal b
  &&
  let ok = ref true in
  Bitset.iter_set a (fun v -> if not (Bitset.get b v) then ok := false);
  !ok

let same_result (a : Engine.result) (b : Engine.result) =
  outputs a = outputs b && a.down = b.down && a.repair = b.repair
  && same_knows a.knows b.knows

(* Checks that hold for any seed. Under crashes with recovery amnesia a
   rumor whose every holder crashed is gone for good, so "nobody
   informed" is the other correct ending there. *)
let check (sc : Scenario.t) s (r : Engine.result) =
  let cap = s.topology.Topology.capacity in
  let fanout = Selector.fanout s.protocol.Protocol.selector in
  let extinct =
    r.informed = 0 && Rumor_sim.Fault.has_node_faults (Scenario.fault_plan sc)
  in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      ( r.population > 0 && (r.informed = r.population || extinct),
        Printf.sprintf "coverage %d/%d" r.informed r.population );
      ( r.rounds >= 1
        && Option.value r.completion_round ~default:0 <= r.rounds,
        "completion round after the last round" );
      ( Engine.transmissions r >= r.informed - 1,
        "fewer deliveries than informed nodes" );
      (r.channels <= cap * fanout * r.rounds, "more channels than callers");
      (Bitset.cardinal r.knows >= r.informed, "knows holds fewer than informed");
      (Engine.epochs_used r <= sc.max_epochs, "repair epochs over budget");
    ]

(* --- pinned outputs (benchmark/expected.json) --- *)

let expected_path = Filename.concat "benchmark" "expected.json"

(* A run cycles through this many streams, and expected.json pins the
   outputs of each at the default seed: a run that outpaces them reuses
   an input, and every broadcast it makes is still checked. *)
let streams = 64

let stream ~seed k = Rng.fork (Rng.create seed) (k mod streams)

(* [(seed, outputs per stream)] pinned for a workload, if any. *)
let load_pins name =
  match
    In_channel.with_open_bin expected_path In_channel.input_all
    |> Json.of_string
  with
  | exception Sys_error e -> Error e
  | Error e -> Error (expected_path ^ ": " ^ e)
  | Ok doc -> (
      match Json.member name doc with
      | None -> Ok None
      | Some w -> (
          match
            ( Option.bind (Json.member "seed" w) Json.to_int,
              Option.bind (Json.member "broadcasts" w) Json.to_list )
          with
          | Some _, Some bs when List.length bs <> streams ->
              Error
                (Printf.sprintf "%s: %s pins %d broadcasts, not %d"
                   expected_path name (List.length bs) streams)
          | Some seed, Some bs ->
              let rec all acc = function
                | [] -> Ok (Some (seed, Array.of_list (List.rev acc)))
                | b :: rest -> (
                    match outputs_of_json b with
                    | Ok o -> all (o :: acc) rest
                    | Error e -> Error e)
              in
              all [] bs
          | _ -> Error (expected_path ^ ": malformed entry for " ^ name)))

(* The outputs of every stream at [seed], to pin. *)
let pin (sc : Scenario.t) ~seed =
  List.init streams (fun k ->
      let rng = stream ~seed k in
      let s = setup sc rng in
      outputs (broadcast sc s rng))

(* --- isolated per-call costs, for the layer shares --- *)

(* ns per call of [f] over passes through every node, [calls_per_node]
   calls each, repeated for about [budget] seconds. *)
let per_call_ns ~cap ~calls_per_node ~budget f =
  let calls = ref 0 in
  let t0 = now_s () in
  while !calls = 0 || now_s () -. t0 < budget do
    for u = 0 to cap - 1 do
      for j = 0 to calls_per_node - 1 do
        f u j
      done
    done;
    calls := !calls + (cap * calls_per_node)
  done;
  (now_s () -. t0) *. 1e9 /. float_of_int !calls

(* [neighbor v i] at random [i], ascending [v] as the initiator loop
   walks; the same loop around a trivial closure is subtracted. *)
let neighbor_ns (t : Topology.t) ~fanout =
  let cap = t.Topology.capacity in
  let x = ref 0x2545F4914F6CDD1D and sink = ref 0 in
  let timed g =
    per_call_ns ~cap ~calls_per_node:fanout ~budget:0.1 (fun u _ ->
        let d = t.Topology.degree u in
        if d > 0 then begin
          x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
          sink := !sink + g u ((!x lsr 30) mod d)
        end)
  in
  let call = timed t.Topology.neighbor in
  let base = timed (fun u i -> u lxor i) in
  Float.max 0. (call -. base)

let select_ns (pr : _ Protocol.t) (t : Topology.t) =
  let cap = t.Topology.capacity in
  let sel = Selector.make pr.Protocol.selector ~capacity:cap in
  let out = Array.make (max 1 (Selector.fanout pr.Protocol.selector)) 0 in
  let rng = Rng.create 1 in
  per_call_ns ~cap ~calls_per_node:1 ~budget:0.1 (fun u _ ->
      let d = t.Topology.degree u in
      if d > 0 then ignore (Selector.select sel ~rng ~node:u ~degree:d ~out))

(* --- per-layer accounting over traced broadcasts --- *)

type layers = {
  probe : Probe.t;
  mutable node_rounds : float;
  mutable channels : float;
  mutable tx : float;
  mutable rounds : float;
  mutable epochs : float;
  mutable epoch_rounds : float;
  mutable broadcasts : int;
  mutable untraced_s : float list;
  mutable traced_s : float list;
  mutable ns_per_node_round : float list;
  mutable heap_bytes_per_node : float;
  mutable graph_s : float list;
}

let layers () =
  {
    probe = Probe.create ();
    node_rounds = 0.;
    channels = 0.;
    tx = 0.;
    rounds = 0.;
    epochs = 0.;
    epoch_rounds = 0.;
    broadcasts = 0;
    untraced_s = [];
    traced_s = [];
    ns_per_node_round = [];
    heap_bytes_per_node = 0.;
    graph_s = [];
  }

(* Bytes this domain has allocated so far, minor and major heap. *)
let allocated_bytes () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* An untraced broadcast (timed, with the bytes it allocates) and a
   traced one on a copy of the same stream. Callers alternate
   [traced_first], so neither side always runs on the warmer heap. *)
let traced_pair l ~traced_first (sc : Scenario.t) s rng =
  let cap = float_of_int s.topology.Topology.capacity in
  let replay = Rng.copy rng in
  let untraced () =
    let a0 = allocated_bytes () in
    let t0 = now_s () in
    let r = broadcast sc s rng in
    let dt = now_s () -. t0 in
    (r, dt, allocated_bytes () -. a0)
  in
  let traced () =
    let t0 = now_s () in
    let r' = broadcast ~probe:l.probe sc s replay in
    (r', now_s () -. t0)
  in
  let (r, dt, bytes), (r', dt') =
    if traced_first then
      let t = traced () in
      (untraced (), t)
    else
      let u = untraced () in
      (u, traced ())
  in
  let node_rounds = cap *. float_of_int r.rounds in
  l.node_rounds <- l.node_rounds +. node_rounds;
  l.channels <- l.channels +. float_of_int r.channels;
  l.tx <- l.tx +. float_of_int (Engine.transmissions r);
  l.rounds <- l.rounds +. float_of_int r.rounds;
  l.epochs <- l.epochs +. float_of_int (Engine.epochs_used r);
  l.epoch_rounds <-
    l.epoch_rounds
    +. float_of_int
         (List.fold_left (fun a e -> a + e.Engine.epoch_rounds) 0 r.repair);
  l.broadcasts <- l.broadcasts + 1;
  l.untraced_s <- dt :: l.untraced_s;
  l.traced_s <- dt' :: l.traced_s;
  l.ns_per_node_round <- (dt *. 1e9 /. node_rounds) :: l.ns_per_node_round;
  l.heap_bytes_per_node <- Float.max l.heap_bytes_per_node (bytes /. cap);
  l.graph_s <- s.graph_s :: l.graph_s;
  (r, r', dt)

let layer_metrics l ~neighbor_ns ~select_ns =
  let p = l.probe in
  let nr = l.node_rounds in
  let per c = Metric.ratio (float_of_int c) nr in
  let untraced_ns = Metric.sum l.untraced_s *. 1e9 in
  (("kernel.ns_per_node_round", Metric.median l.ns_per_node_round)
  :: List.mapi
       (fun i phase ->
         ( "kernel." ^ phase ^ "_ns_per_node_round",
           Metric.ratio (float_of_int p.Probe.ns.(i)) nr ))
       (Array.to_list Probe.phase_names))
  @ [
    ("kernel.channels_per_node_round", Metric.ratio l.channels nr);
    ("kernel.useful_channel_ratio", Metric.ratio l.tx l.channels);
    ("kernel.heap_bytes_per_node", l.heap_bytes_per_node);
    ("topology.neighbor_per_node_round", per p.Probe.neighbor);
    ("topology.alive_per_node_round", per p.Probe.alive);
    ("topology.degree_per_node_round", per p.Probe.degree);
    ("topology.neighbor_ns", neighbor_ns);
    ( "topology.neighbor_share",
      Metric.ratio (float_of_int p.Probe.neighbor *. neighbor_ns) untraced_ns );
    ("selector.select_ns", select_ns);
    (* One select per degree call: the initiator loop asks for the
       degree exactly when it is about to select. *)
    ( "selector.select_share",
      Metric.ratio (float_of_int p.Probe.degree *. select_ns) untraced_ns );
    ("protocol.decide_per_node_round", per p.Probe.decide);
    ("protocol.receive_per_node_round", per p.Probe.receive);
    ("protocol.feedback_per_node_round", per p.Probe.feedback);
    ("protocol.quiescent_per_node_round", per p.Probe.quiescent);
    ("gen.graph_build_s", Metric.median l.graph_s);
    ("repair.epochs", Metric.ratio l.epochs (float_of_int l.broadcasts));
    ("repair.epoch_rounds_share", Metric.ratio l.epoch_rounds l.rounds);
    ( "trace.overhead_pct",
      100. *. (Metric.ratio (Metric.sum l.traced_s) (Metric.sum l.untraced_s) -. 1.)
    );
  ]

(* --- one run --- *)

(* A set-up under a millisecond (an implicit view's key schedule) is
   timed as the mean of a block of repeats on copies of the stream, not
   as one microsecond reading; a graph build is timed once. *)
let setup_time sc rng0 first =
  if first.setup_s >= 1e-3 then first.setup_s
  else
    let reps = 1000 in
    let t0 = now_s () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (setup sc (Rng.copy rng0)))
    done;
    (now_s () -. t0) /. float_of_int reps

type broadcast = {
  b_setup_s : float;
  b_wall_s : float;  (** the untraced broadcast call *)
  b_node_rounds : float;
  b_failures : string list;
  b_record : Json.t;
}

let run (w : Workload.t) (sc : Scenario.t) ~seed ~seconds ~traced =
  let pins =
    match load_pins w.Workload.name with
    | Ok (Some (pin_seed, outs)) when pin_seed = seed -> Ok (Some outs)
    | Ok _ -> Ok None
    | Error e -> Error e
  in
  let l = layers () in
  let last = ref None in
  let one k =
    let rng = stream ~seed k in
    let rng0 = Rng.copy rng in
    Gc.full_major ();
    let s = setup sc rng in
    last := Some s;
    let setup_s = if traced then s.setup_s else setup_time sc rng0 s in
    let r, dt, traced_ok =
      if traced then
        let r, r', dt = traced_pair l ~traced_first:(k mod 2 = 1) sc s rng in
        (r, dt, same_result r r')
      else
        let t0 = now_s () in
        let r = broadcast sc s rng in
        (r, now_s () -. t0, true)
    in
    let o = outputs r in
    let pinned =
      match pins with
      | Ok (Some outs) ->
          if outs.(k mod streams) = o then []
          else [ "outputs differ from benchmark/expected.json" ]
      | Ok _ -> []
      | Error e -> [ e ]
    in
    let failures =
      List.map
        (fun m -> Printf.sprintf "broadcast %d: %s" k m)
        (check sc s r @ pinned
        @ if traced_ok then [] else [ "traced run differs from untraced" ])
    in
    {
      b_setup_s = setup_s;
      b_wall_s = dt;
      b_node_rounds =
        float_of_int s.topology.Topology.capacity *. float_of_int r.Engine.rounds;
      b_failures = failures;
      b_record =
        Json.Obj
          [
            ("k", Json.Int k);
            ("setup_s", Json.Float setup_s);
            ("graph_s", Json.Float s.graph_s);
            ("broadcast_s", Json.Float dt);
            ("outputs", outputs_to_json o);
          ];
    }
  in
  let bs = Metric.timeboxed ~seconds ~min:1 one in
  let metrics =
    if traced then
      let s = Option.get !last in
      let fanout = Selector.fanout s.protocol.Protocol.selector in
      layer_metrics l
        ~neighbor_ns:(neighbor_ns s.topology ~fanout)
        ~select_ns:(select_ns s.protocol s.topology)
    else
      [
        ("broadcast_ms", 1e3 *. Metric.median (List.map (fun b -> b.b_wall_s) bs));
        ( "throughput_per_s",
          Metric.median (List.map (fun b -> b.b_node_rounds /. b.b_wall_s) bs) );
        ( "peak_rss_mb",
          float_of_int (Rumor_obs.Metrics.peak_rss_kb ()) /. 1024. );
        ("setup_s", Metric.median (List.map (fun b -> b.b_setup_s) bs));
      ]
  in
  {
    Metric.metrics;
    attempted = List.length bs * if traced then 2 else 1;
    failed = List.length (List.filter (fun b -> b.b_failures <> []) bs);
    failures = List.concat_map (fun b -> b.b_failures) bs;
    records = List.map (fun b -> b.b_record) bs;
  }
