(* Differential tests for the shared simulation kernel.

   The kernel's contract is that its optimisations — bitsets, decision
   caches, witness-cached quiescence, the incrementally maintained
   census — are invisible: every driver draws randomness in the
   documented order and produces the same trajectories as a naive
   full-rescan round loop. This file pins that three ways:

   - [Ref_engine] is a deliberately slow bool-array transliteration of
     the round schedule (full rescans every round, no caches, list
     bookkeeping; staged receipts and feedback applied in ascending id
     order). Random (n, d, protocol, fault-plan, skew) configurations
     must produce identical result records through [Engine.run] and the
     reference.
   - The incremental census (no churn hooks) and the full per-round
     recount (hooks installed) must agree on every field — the census
     invariant documented on [Kernel].
   - A single-message [Multi.run] is the same simulation as
     [Engine.run] under every fault plan, bursts, crashes and strikes
     included: both drive the whole plan through one runtime.

   Both state stores take one delivery loop whose checks depend on what
   can fail. Two more generators cover its regimes: the fault-free one
   (no liveness or fault checks, idle channels counted without
   resolving their callees), gate included, and the node-fault one
   (crashes, strikes, partitions, call failure sometimes off), where
   liveness is read from a per-round bitset. The Demers coin variants,
   which draw when a receipt or a duplicate is applied, run under both
   generators against the reference. Tests that count [neighbor] and
   [alive] calls show which checks run where. Counting [decide] and
   [feedback] calls shows that each round decides every informed node
   once and that a protocol that listens hears every duplicate; a
   differential shows that skipping the staging for the identity
   feedback changes nothing.

   The differentials that also draw gated configurations, the shape of
   a repair epoch, call [Kernel.run] on one table, which is what
   [Engine.run] runs; the multi-table census and store differentials
   call it with several tables. Plus the asynchronous driver's trace
   accounting. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Kernel = Rumor_sim.Kernel
module Multi = Rumor_sim.Multi
module Async = Rumor_sim.Async
module Fault = Rumor_sim.Fault
module Selector = Rumor_sim.Selector
module Protocol = Rumor_sim.Protocol
module Topology = Rumor_test_support.Topology
module Trace = Rumor_test_support.Trace
module Baselines = Rumor_core.Baselines
module Algorithm = Rumor_core.Algorithm
module Params = Rumor_core.Params

(* ------------------------------------------------------------------ *)
(* Reference engine: obviously-correct, allocation-happy round loop.  *)
(* ------------------------------------------------------------------ *)

module Ref_engine = struct
  type result = {
    rounds : int;
    completion_round : int option;
    informed : int;
    population : int;
    push_tx : int;
    pull_tx : int;
    channels : int;
    knows : bool array;
    down : int list;
  }

  let run ?(fault = Fault.none) ?(stop_when_complete = false) ?skew ?gate ~rng
      ~(topology : Topology.t) ~(protocol : 'st Protocol.t) ~sources () =
    let cap = topology.Topology.capacity in
    let alive v = topology.Topology.alive v in
    let skew_f = match skew with Some f -> f | None -> fun _ -> 0 in
    let rt = Fault.start fault ~capacity:cap in
    let informed = Array.make cap false in
    let state =
      Array.init cap (fun _ -> protocol.Protocol.init ~informed:false)
    in
    List.iter
      (fun s ->
        informed.(s) <- true;
        state.(s) <- protocol.Protocol.init ~informed:true)
      sources;
    let selector = Selector.make protocol.Protocol.selector ~capacity:cap in
    let scratch =
      Array.make (max (Selector.fanout protocol.Protocol.selector) 1) 0
    in
    let max_skew = ref 0 in
    for v = 0 to cap - 1 do
      if skew_f v > !max_skew then max_skew := skew_f v
    done;
    let horizon = protocol.Protocol.horizon + !max_skew in
    let push_tx = ref 0 and pull_tx = ref 0 and channels = ref 0 in
    let completion = ref None in
    (* The round applies its staged receipts, then the duplicate
       feedback, in ascending id order. *)
    let pending = ref [] in
    let dups = Array.make cap 0 in
    let decide v r =
      let logical = r - skew_f v in
      if logical < 1 then Protocol.silent
      else protocol.Protocol.decide state.(v) ~round:logical
    in
    let quiet_at r v =
      let logical = r + 1 - skew_f v in
      logical >= 1 && protocol.Protocol.quiescent state.(v) ~round:logical
    in
    let round = ref 0 and stop = ref false in
    while (not !stop) && !round < horizon do
      incr round;
      let r = !round in
      Fault.begin_round rt ~rng ~round:r ~degree:topology.Topology.degree
        ~alive
        ~informed:(fun v -> informed.(v));
      for u = 0 to cap - 1 do
        if
          alive u && Fault.active rt u
          && (match gate with
             | None -> true
             | Some g -> g ~informed:informed.(u) ~node:u ~round:r)
        then begin
          let d = topology.Topology.degree u in
          if d > 0 then begin
            let k =
              Selector.select selector ~rng ~node:u ~degree:d ~out:scratch
            in
            for i = 0 to k - 1 do
              let w = topology.Topology.neighbor u scratch.(i) in
              if
                alive w && Fault.active rt w && Fault.same_side rt u w
                && Fault.channel_ok fault rng
              then begin
                incr channels;
                if
                  informed.(u)
                  && (decide u r).Protocol.push
                  && Fault.push_ok rt rng ~sender:u
                then begin
                  incr push_tx;
                  if informed.(w) || List.mem w !pending then
                    dups.(u) <- dups.(u) + 1
                  else pending := w :: !pending
                end;
                if
                  informed.(w)
                  && (decide w r).Protocol.pull
                  && Fault.pull_ok rt rng ~sender:w
                then begin
                  incr pull_tx;
                  if informed.(u) || List.mem u !pending then
                    dups.(w) <- dups.(w) + 1
                  else pending := u :: !pending
                end
              end
            done
          end
        end
      done;
      List.iter
        (fun v ->
          informed.(v) <- true;
          state.(v) <-
            protocol.Protocol.receive state.(v)
              ~round:(max 0 (r - skew_f v)))
        (List.sort compare !pending);
      pending := [];
      for v = 0 to cap - 1 do
        for _ = 1 to dups.(v) do
          state.(v) <-
            protocol.Protocol.feedback state.(v) ~round:(max 0 (r - skew_f v))
        done;
        dups.(v) <- 0
      done;
      let live = ref 0 and know = ref 0 and quiet = ref true in
      for v = 0 to cap - 1 do
        if alive v then
          if Fault.active rt v then begin
            incr live;
            if informed.(v) then begin
              incr know;
              if not (quiet_at r v) then quiet := false
            end
          end
          else if informed.(v) && Fault.may_recover rt then quiet := false
      done;
      if !completion = None && !live > 0 && !know = !live then
        completion := Some r;
      if !quiet then stop := true;
      if stop_when_complete && !completion <> None then stop := true
    done;
    let live = ref 0 and know = ref 0 and down = ref [] in
    for v = cap - 1 downto 0 do
      if alive v then
        if Fault.active rt v then begin
          incr live;
          if informed.(v) then incr know
        end
        else down := v :: !down
    done;
    {
      rounds = !round;
      completion_round = !completion;
      informed = !know;
      population = !live;
      push_tx = !push_tx;
      pull_tx = !pull_tx;
      channels = !channels;
      knows = Array.copy informed;
      down = !down;
    }
end

(* ------------------------------------------------------------------ *)
(* Random configurations.                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  n : int;
  d : int;
  pchoice : int;
  fault : Fault.t;
  skewed : bool;
  stop : bool;
  gated : bool;
}

let config_of_seed seed =
  let c = Rng.create (0x5EED + seed) in
  let n = 2 * (6 + Rng.int c 20) in
  let d = 3 + Rng.int c 4 in
  let burst =
    if Rng.int c 3 = 0 then Some (Fault.burst ~loss:0.2 ~burst_len:3.)
    else None
  in
  let strike =
    if Rng.int c 3 = 0 then
      let adversary =
        match Rng.int c 3 with
        | 0 -> Fault.Random_nodes
        | 1 -> Fault.Highest_degree
        | _ -> Fault.Frontier
      in
      Some (Fault.strike ~adversary ~at_round:(1 + Rng.int c 4) ~count:d ())
    else None
  in
  let crash = Rng.int c 3 = 0 in
  let fault =
    Fault.plan
      ~call_failure:(0.2 *. Rng.float c)
      ~link_loss:(0.3 *. Rng.float c)
      ~push_loss:(0.15 *. Rng.float c)
      ~pull_loss:(0.15 *. Rng.float c)
      ?burst
      ~crash_rate:(if crash then 0.03 else 0.)
      ~recover_rate:(if crash then 0.3 else 0.)
      ?strike ()
  in
  {
    seed;
    n;
    d;
    pchoice = Rng.int c 4;
    fault;
    skewed = Rng.int c 3 = 0;
    stop = Rng.int c 4 = 0;
    gated = false;
  }

let graph_of cfg =
  let rng = Rng.create (0xA11CE + cfg.seed) in
  Regular.sample_connected ~rng ~n:cfg.n ~d:cfg.d Regular.Pairing

(* The protocol state type varies per choice, so the checks run inside
   a polymorphic helper applied at each branch. *)
let with_protocol cfg (check : 'st Protocol.t -> bool) =
  match cfg.pchoice with
  | 0 -> check (Baselines.push ~fanout:1 ~horizon:25 ())
  | 1 -> check (Baselines.pull ~fanout:1 ~horizon:25 ())
  | 2 -> check (Baselines.push_pull ~fanout:1 ~horizon:25 ())
  | _ ->
      check
        (Algorithm.make
           (Params.make ~alpha:1.0 ~fanout:4 ~n_estimate:cfg.n ~d:cfg.d ()))

let same_engine_ref (e : Engine.result) (f : Ref_engine.result) =
  e.Engine.rounds = f.Ref_engine.rounds
  && e.Engine.completion_round = f.Ref_engine.completion_round
  && e.Engine.informed = f.Ref_engine.informed
  && e.Engine.population = f.Ref_engine.population
  && e.Engine.push_tx = f.Ref_engine.push_tx
  && e.Engine.pull_tx = f.Ref_engine.pull_tx
  && e.Engine.channels = f.Ref_engine.channels
  && Rumor_test_support.Bitset.to_bool_array e.Engine.knows = f.Ref_engine.knows
  && e.Engine.down = f.Ref_engine.down

let same_engine_engine (a : Engine.result) (b : Engine.result) =
  a.Engine.rounds = b.Engine.rounds
  && a.Engine.completion_round = b.Engine.completion_round
  && a.Engine.informed = b.Engine.informed
  && a.Engine.population = b.Engine.population
  && a.Engine.push_tx = b.Engine.push_tx
  && a.Engine.pull_tx = b.Engine.pull_tx
  && a.Engine.channels = b.Engine.channels
  && a.Engine.knows = b.Engine.knows
  && a.Engine.down = b.Engine.down

(* What [Engine.run] runs, with an optional gate: [Kernel.run] on one
   table. [Engine.run] takes no gate (only repair epochs gate, through
   [Kernel.run_epochs]), so the differentials that draw gated
   configurations compare the kernel's result, table 0, with the
   reference. *)
let kernel_run ?gate ?skew ?on_round_end ?packed ~fault ~stop_when_complete
    ~rng ~topology ~protocol ~sources () =
  Kernel.run ?gate ?skew ?on_round_end ?packed ~fault ~stop_when_complete ~rng
    ~topology ~protocol
    ~tables:[| { Kernel.sources; created = 0 } |]
    ()

let same_kernel_ref (k : Kernel.result) (f : Ref_engine.result) =
  let t = k.Kernel.tables.(0) in
  k.Kernel.rounds = f.Ref_engine.rounds
  && t.Kernel.completion_round = f.Ref_engine.completion_round
  && t.Kernel.informed = f.Ref_engine.informed
  && k.Kernel.population = f.Ref_engine.population
  && t.Kernel.push_tx = f.Ref_engine.push_tx
  && t.Kernel.pull_tx = f.Ref_engine.pull_tx
  && k.Kernel.channels = f.Ref_engine.channels
  && Rumor_test_support.Bitset.to_bool_array t.Kernel.knows
     = f.Ref_engine.knows
  && k.Kernel.down = f.Ref_engine.down

(* Two kernel runs agree on every field, table by table, trace rows
   included. *)
let same_kernel (a : Kernel.result) (b : Kernel.result) =
  a.Kernel.rounds = b.Kernel.rounds
  && a.Kernel.channels = b.Kernel.channels
  && a.Kernel.population = b.Kernel.population
  && a.Kernel.down = b.Kernel.down
  && a.Kernel.tables = b.Kernel.tables
  && Option.map Trace.rows a.Kernel.trace = Option.map Trace.rows b.Kernel.trace

(* [k] one-source tables with staggered creation times, drawn from
   [c]. *)
let tables_of c ~k ~n =
  Array.of_list
    (List.init k (fun j ->
         { Kernel.sources = [ Rng.int c n ]; created = j * Rng.int c 4 }))

(* Engine vs reference vs full-census Engine: one random configuration,
   three simulations from the same seed, all fields equal. *)
let engine_differential =
  QCheck.Test.make ~count:80
    ~name:"Engine.run = naive reference = full-census Engine.run"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
      let sources = [ Rng.int (Rng.create (0x50 + seed)) (Graph.n g) ] in
      with_protocol cfg (fun protocol ->
          let run ?on_round_end () =
            Engine.run ?skew ?on_round_end ~fault:cfg.fault
              ~stop_when_complete:cfg.stop
              ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol ~sources ()
          in
          let incremental = run () in
          let full = run ~on_round_end:(fun _ -> ()) () in
          let reference =
            Ref_engine.run ?skew ~fault:cfg.fault
              ~stop_when_complete:cfg.stop
              ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol ~sources ()
          in
          same_engine_ref incremental reference
          && same_engine_engine incremental full))

(* Packed per-node state vs boxed arrays: for rng-pure protocols the
   compact-cell kernel path must be bit-identical to the boxed one —
   same rounds, same trajectories, same knows bitmap. The protocol pool
   here deliberately spans every packed encoding in the tree: the
   baseline received-round code, bef's phase machine, and the Feedback
   counter variants with their two-counter stride packing. *)
type packed_check = { check : 'st. 'st Protocol.t -> bool }

let packed_protocol cfg { check } =
  match cfg.pchoice with
  | 0 -> check (Baselines.push_pull ~fanout:1 ~horizon:25 ())
  | 1 -> check (Rumor_core.Feedback.feedback_counter ~k:2 ~horizon:25 ())
  | 2 -> check (Rumor_core.Feedback.blind_counter ~k:3 ~horizon:25 ())
  | _ ->
      check
        (Algorithm.make
           (Params.make ~alpha:1.0 ~fanout:4 ~n_estimate:cfg.n ~d:cfg.d ()))

let packed_boxed_differential =
  QCheck.Test.make ~count:80
    ~name:"Engine.run ~packed:true = Engine.run ~packed:false"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
      let sources = [ Rng.int (Rng.create (0x50 + seed)) (Graph.n g) ] in
      packed_protocol cfg
        {
          check =
            (fun protocol ->
              let run packed =
                Engine.run ~packed ?skew ~fault:cfg.fault
                  ~stop_when_complete:cfg.stop
                  ~rng:(Rng.create (0xF00D + seed))
                  ~topology ~protocol ~sources ()
              in
              same_engine_engine (run true) (run false));
        })

(* The packed encode/decode pair is a bijection on reachable states:
   round-tripping the codes the packed run actually produces recovers
   the boxed state exactly, and the packed receipt and feedback
   transitions decode to the boxed ones. Round 27 lies past the
   25-round horizons: under clock skew the kernel runs [horizon + max
   skew] rounds, so an unskewed node can receive that late. *)
let packed_codec_roundtrip =
  QCheck.Test.make ~count:120 ~name:"packed encode/decode round-trips"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      packed_protocol cfg
        {
          check =
            (fun protocol ->
              match protocol.Protocol.packed with
              | None -> false (* every pool protocol must carry packed ops *)
              | Some p ->
                  let ops = p.Protocol.ops in
                  let fresh = protocol.Protocol.init ~informed:false in
                  let steps =
                    List.map
                      (fun round ->
                        let c0 =
                          ops.Protocol.p_receive
                            (ops.Protocol.p_init ~informed:false)
                            ~round
                        in
                        let st0 = protocol.Protocol.receive fresh ~round in
                        ( c0,
                          ops.Protocol.p_feedback c0 ~round,
                          st0,
                          protocol.Protocol.feedback st0 ~round ))
                      [ 1; 2; 7; 25; 27 ]
                  in
                  let codes =
                    ops.Protocol.p_init ~informed:false
                    :: ops.Protocol.p_init ~informed:true
                    :: List.concat_map (fun (c0, c1, _, _) -> [ c0; c1 ]) steps
                  in
                  List.for_all
                    (fun c -> p.Protocol.encode (p.Protocol.decode c) = c)
                    codes
                  && List.for_all
                       (fun (c0, c1, st0, st1) ->
                         p.Protocol.decode c0 = st0 && p.Protocol.decode c1 = st1)
                       steps);
        })

(* A single rumor through Multi is the same simulation as Engine under
   every plan the generator draws: bursts, crashes, recoveries and
   strikes apply to both through the same runtime. *)
let multi_singleton_differential =
  QCheck.Test.make ~count:60
    ~name:"single-message Multi.run = Engine.run (every fault plan)"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let source = Rng.int (Rng.create (0x50 + seed)) (Graph.n g) in
      with_protocol cfg (fun protocol ->
          let e =
            Engine.run ~fault:cfg.fault ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol ~sources:[ source ] ()
          in
          let m =
            Multi.run ~fault:cfg.fault ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol
              ~messages:[ { Multi.source; created = 0 } ]
              ()
          in
          let mr = m.Multi.messages.(0) in
          m.Multi.rounds = e.Engine.rounds
          && m.Multi.channels = e.Engine.channels
          && m.Multi.population = e.Engine.population
          && mr.Multi.completion_round = e.Engine.completion_round
          && mr.Multi.informed = e.Engine.informed
          && mr.Multi.transmissions = Engine.transmissions e))

(* The census invariant with several tables: installing a no-op churn
   hook switches to the full per-round recount and must change nothing,
   table by table, over staggered creation times. *)
let multi_census_differential =
  QCheck.Test.make ~count:60
    ~name:"Kernel.run tables: incremental census = full census"
    QCheck.small_int
    (fun seed ->
      let cfg = config_of_seed seed in
      let g = graph_of cfg in
      let topology = Topology.of_graph g in
      let c = Rng.create (0x5AC + seed) in
      let k = 1 + Rng.int c 3 in
      let tables = tables_of c ~k ~n:(Graph.n g) in
      with_protocol cfg (fun protocol ->
          let run ?on_round_end () =
            Kernel.run ?on_round_end ~fault:cfg.fault ~collect_trace:true
              ~rng:(Rng.create (0xF00D + seed))
              ~topology ~protocol ~tables ()
          in
          same_kernel (run ()) (run ~on_round_end:(fun _ -> ()) ())))

(* ------------------------------------------------------------------ *)
(* The fault-free regime.                                             *)
(* ------------------------------------------------------------------ *)

(* [config_of_seed] always draws a positive call-failure rate, so the
   suites above never run the regime of the paper's experiments: no
   call failure, no node faults, no partition. There the kernel counts
   idle channels without resolving their callees, so that path
   needs its own generator. Loss (link, asymmetric, bursty), skew,
   oracle stopping and a gate stay optional: none of them adds a check
   to the loop, and repair epochs run it behind their gate. *)
let fault_free_of_seed seed =
  let c = Rng.create (0xFA17 + seed) in
  let n = 2 * (6 + Rng.int c 20) in
  let d = 3 + Rng.int c 4 in
  let loss scale = if Rng.int c 2 = 0 then 0. else scale *. Rng.float c in
  let link_loss = loss 0.3 in
  let push_loss = loss 0.15 in
  let pull_loss = loss 0.15 in
  let burst =
    if Rng.int c 3 = 0 then Some (Fault.burst ~loss:0.2 ~burst_len:3.)
    else None
  in
  let cfg =
    {
      seed;
      n;
      d;
      pchoice = Rng.int c 5;
      fault = Fault.plan ~link_loss ~push_loss ~pull_loss ?burst ();
      skewed = Rng.int c 3 = 0;
      stop = Rng.int c 4 = 0;
      gated = false;
    }
  in
  (* Drawn after the record, whose fields are evaluated in an
     unspecified order, so the configurations without the gate are
     those the generator drew before it had one. *)
  { cfg with gated = Rng.int c 3 = 0 }

(* A repair epoch's kind of gate: it closes some nodes in some rounds,
   informed or not, as a fixed function of its arguments. *)
let gate_of cfg =
  if cfg.gated then
    Some
      (fun ~informed ~node ~round ->
        ((node * 7) + (round * 3) + if informed then 1 else 0) mod 4 <> 0)
  else None

(* Every protocol here carries packed ops; push-only adds the regime
   where almost every channel is idle. *)
let fault_free_protocol cfg pc =
  if cfg.pchoice = 4 then pc.check (Baselines.push ~fanout:1 ~horizon:25 ())
  else packed_protocol cfg pc

let fault_free_differential =
  QCheck.Test.make ~count:80
    ~name:"fault-free: Engine.run = reference = ~packed:false, tables packed = boxed"
    QCheck.small_int
    (fun seed ->
      let cfg = fault_free_of_seed seed in
      let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
      let gate = gate_of cfg in
      let sources = [ Rng.int (Rng.create (0x50 + seed)) cfg.n ] in
      let tables = tables_of (Rng.create (0x5AC + seed)) ~k:2 ~n:cfg.n in
      let on_topology topology =
        fault_free_protocol cfg
          {
            check =
              (fun protocol ->
                let run packed =
                  kernel_run ~packed ?skew ?gate ~fault:cfg.fault
                    ~stop_when_complete:cfg.stop
                    ~rng:(Rng.create (0xF00D + seed))
                    ~topology ~protocol ~sources ()
                in
                let reference =
                  Ref_engine.run ?skew ?gate ~fault:cfg.fault
                    ~stop_when_complete:cfg.stop
                    ~rng:(Rng.create (0xF00D + seed))
                    ~topology ~protocol ~sources ()
                in
                let multi packed =
                  Kernel.run ~packed ~fault:cfg.fault ~collect_trace:true
                    ~rng:(Rng.create (0xF00D + seed))
                    ~topology ~protocol ~tables ()
                in
                let packed = run true in
                same_kernel_ref packed reference
                && same_kernel packed (run false)
                && same_kernel (multi true) (multi false));
          }
      in
      on_topology (Topology.of_graph (graph_of cfg))
      && on_topology
           (Topology.implicit_regular ~seed:(0xD1CE + seed) ~n:cfg.n ~d:cfg.d))

(* ------------------------------------------------------------------ *)
(* Node faults and partitions.                                        *)
(* ------------------------------------------------------------------ *)

(* The delivery loop reads liveness from its per-round bitset whenever a
   node can be down, and checks each channel whenever one can fail.
   [config_of_seed] never opens a partition and always fails calls, so
   this generator draws crash/recover, strikes of every adversary
   (one-shot and recurring) and partition windows, with [call_failure]
   0 half the time: then an idle callee is resolved and checked for
   liveness and side, but no channel draw is made. *)
let node_fault_of_seed seed =
  let c = Rng.create (0xDEAD + seed) in
  let n = 2 * (6 + Rng.int c 20) in
  let d = 3 + Rng.int c 4 in
  let crash = Rng.int c 2 = 0 in
  let strike =
    if Rng.int c 2 = 0 then begin
      let adversary =
        match Rng.int c 3 with
        | 0 -> Fault.Random_nodes
        | 1 -> Fault.Highest_degree
        | _ -> Fault.Frontier
      in
      let at_round = 1 + Rng.int c 4 in
      let every = Rng.int c 4 in
      let count = 1 + Rng.int c d in
      Some (Fault.strike ~adversary ~every ~at_round ~count ())
    end
    else None
  in
  let partition =
    if Rng.int c 2 = 0 then begin
      let split_at = 1 + Rng.int c 5 in
      let heal_at = split_at + 1 + Rng.int c 6 in
      let fraction = 0.2 +. (0.6 *. Rng.float c) in
      Some (Fault.partition ~fraction ~split_at ~heal_at ())
    end
    else None
  in
  let call_failure = if Rng.int c 2 = 0 then 0. else 0.2 *. Rng.float c in
  let link_loss = if Rng.int c 2 = 0 then 0. else 0.3 *. Rng.float c in
  let burst =
    if Rng.int c 3 = 0 then Some (Fault.burst ~loss:0.2 ~burst_len:3.)
    else None
  in
  let fault =
    Fault.plan ~call_failure ~link_loss ?burst
      ~crash_rate:(if crash then 0.03 else 0.)
      ~recover_rate:(if crash then 0.3 else 0.)
      ?strike ?partition ()
  in
  let pchoice = Rng.int c 5 in
  let skewed = Rng.int c 3 = 0 in
  let stop = Rng.int c 4 = 0 in
  let gated = Rng.int c 3 = 0 in
  { seed; n; d; pchoice; fault; skewed; stop; gated }

(* The packed run against the reference and the boxed run, and against
   itself with a no-op [on_round_end]: the full census makes every node
   possibly down, so the liveness bitset is rebuilt even when the plan
   crashes nothing. *)
let node_fault_differential =
  QCheck.Test.make ~count:80
    ~name:"node faults: Engine.run = reference = ~packed:false = full census"
    QCheck.small_int
    (fun seed ->
      let cfg = node_fault_of_seed seed in
      let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
      let gate = gate_of cfg in
      let sources = [ Rng.int (Rng.create (0x50 + seed)) cfg.n ] in
      let on_topology topology =
        fault_free_protocol cfg
          {
            check =
              (fun protocol ->
                let run ?on_round_end packed =
                  kernel_run ~packed ?skew ?gate ?on_round_end ~fault:cfg.fault
                    ~stop_when_complete:cfg.stop
                    ~rng:(Rng.create (0xF00D + seed))
                    ~topology ~protocol ~sources ()
                in
                let reference =
                  Ref_engine.run ?skew ?gate ~fault:cfg.fault
                    ~stop_when_complete:cfg.stop
                    ~rng:(Rng.create (0xF00D + seed))
                    ~topology ~protocol ~sources ()
                in
                let packed = run true in
                same_kernel_ref packed reference
                && same_kernel packed (run false)
                && same_kernel packed (run ~on_round_end:(fun _ -> ()) true));
          }
      in
      on_topology (Topology.of_graph (graph_of cfg))
      && on_topology
           (Topology.implicit_regular ~seed:(0xD1CE + seed) ~n:cfg.n ~d:cfg.d))

(* ------------------------------------------------------------------ *)
(* Protocols that draw when state changes.                            *)
(* ------------------------------------------------------------------ *)

(* The Demers coin variants draw from their own rng in [receive]
   (blind coin, and [init] for sources) or [feedback] (feedback coin),
   so they observe the order in which a round's staged updates are
   applied: ascending node id, in the kernel as in the reference. Each
   side builds its protocol from a fresh rng with the same seed. *)
let coin_protocol cfg =
  let rng = Rng.create (0xC014 + cfg.seed) in
  let k = 2 + (cfg.pchoice / 2) in
  if cfg.pchoice land 1 = 0 then
    Rumor_core.Feedback.feedback_coin ~rng ~k ~horizon:25 ()
  else Rumor_core.Feedback.blind_coin ~rng ~k ~horizon:25 ()

let coin_differential =
  QCheck.Test.make ~count:80
    ~name:"coin variants: Engine.run ~packed:false = reference"
    QCheck.small_int
    (fun seed ->
      List.for_all
        (fun cfg ->
          let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
          let gate = gate_of cfg in
          let sources = [ Rng.int (Rng.create (0x50 + seed)) cfg.n ] in
          let on_topology topology =
            let engine =
              kernel_run ~packed:false ?skew ?gate ~fault:cfg.fault
                ~stop_when_complete:cfg.stop
                ~rng:(Rng.create (0xF00D + seed))
                ~topology ~protocol:(coin_protocol cfg) ~sources ()
            in
            let reference =
              Ref_engine.run ?skew ?gate ~fault:cfg.fault
                ~stop_when_complete:cfg.stop
                ~rng:(Rng.create (0xF00D + seed))
                ~topology ~protocol:(coin_protocol cfg) ~sources ()
            in
            same_kernel_ref engine reference
          in
          on_topology (Topology.of_graph (graph_of cfg))
          && on_topology
               (Topology.implicit_regular ~seed:(0xD1CE + seed) ~n:cfg.n
                  ~d:cfg.d))
        [ fault_free_of_seed seed; node_fault_of_seed seed ])

(* ------------------------------------------------------------------ *)
(* Decisions and duplicate staging.                                   *)
(* ------------------------------------------------------------------ *)

let uses_sentinel (protocol : _ Protocol.t) =
  protocol.Protocol.feedback == Protocol.no_feedback
  &&
  match protocol.Protocol.packed with
  | Some pk -> pk.Protocol.ops.Protocol.p_feedback == Protocol.p_no_feedback
  | None -> true

(* The same protocol with an identity feedback of its own: equal to the
   sentinel, not the same value, so the kernel stages every duplicate
   and applies each tally as a no-op. *)
let own_identity (protocol : _ Protocol.t) =
  {
    protocol with
    Protocol.feedback = (fun st ~round:_ -> st);
    packed =
      Option.map
        (fun pk ->
          {
            pk with
            Protocol.ops =
              { pk.Protocol.ops with Protocol.p_feedback = (fun c ~round:_ -> c) };
          })
        protocol.Protocol.packed;
  }

(* Skipping the staging is unobservable: over the configurations of the
   fault-free and node-fault generators (gates, faults, skew, several
   tables, both stores) and the protocols that ignore feedback (push,
   pull, push-pull, bef), the sentinel and an equal closure give the
   same result, table by table, trace rows included. *)
let staging_skip_differential =
  QCheck.Test.make ~count:60
    ~name:"identity feedback: no staging = staging an equal closure"
    QCheck.small_int
    (fun seed ->
      List.for_all
        (fun cfg ->
          let skew = if cfg.skewed then Some (fun v -> v mod 3) else None in
          let gate = gate_of cfg in
          let c = Rng.create (0x5AC + seed) in
          let tables = tables_of c ~k:(1 + Rng.int c 3) ~n:cfg.n in
          let on_topology topology =
            with_protocol cfg (fun protocol ->
                let run protocol packed =
                  Kernel.run ~packed ?skew ?gate ~fault:cfg.fault
                    ~stop_when_complete:cfg.stop ~collect_trace:true
                    ~rng:(Rng.create (0xF00D + seed))
                    ~topology ~protocol ~tables ()
                in
                uses_sentinel protocol
                && List.for_all
                     (fun packed ->
                       same_kernel (run protocol packed)
                         (run (own_identity protocol) packed))
                     [ true; false ])
          in
          on_topology (Topology.of_graph (graph_of cfg))
          && on_topology
               (Topology.implicit_regular ~seed:(0xD1CE + seed) ~n:cfg.n
                  ~d:cfg.d))
        [ fault_free_of_seed seed; node_fault_of_seed seed ])

(* A protocol that listens still hears every duplicate. Each surviving
   delivery is a first receipt or a duplicate, so a round's [feedback]
   calls are its push and pull transmissions minus its new receipts,
   under loss and crashes too, in either store. *)
let test_listeners_hear_every_duplicate () =
  let n = 512 and d = 6 in
  let topology = Topology.implicit_regular ~seed:77 ~n ~d in
  let base = Rumor_core.Feedback.feedback_counter ~k:2 ~horizon:40 () in
  List.iter
    (fun (what, fault) ->
      List.iter
        (fun packed ->
          let calls = Array.make 64 0 in
          let heard round = calls.(round) <- calls.(round) + 1 in
          let protocol =
            {
              base with
              Protocol.feedback =
                (fun st ~round ->
                  heard round;
                  base.Protocol.feedback st ~round);
              packed =
                Option.map
                  (fun pk ->
                    let ops = pk.Protocol.ops in
                    {
                      pk with
                      Protocol.ops =
                        {
                          ops with
                          Protocol.p_feedback =
                            (fun c ~round ->
                              heard round;
                              ops.Protocol.p_feedback c ~round);
                        };
                    })
                  base.Protocol.packed;
            }
          in
          let r =
            Kernel.run ~packed ~fault ~collect_trace:true ~rng:(Rng.create 5)
              ~topology ~protocol
              ~tables:[| { Kernel.sources = [ 3 ]; created = 0 } |]
              ()
          in
          let rows = Trace.rows (Option.get r.Kernel.trace) in
          let where = Printf.sprintf "%s, packed %b" what packed in
          List.iter
            (fun (row : Trace.row) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: round %d feedback calls" where
                   row.Trace.round)
                (row.Trace.push_tx + row.Trace.pull_tx - row.Trace.newly)
                calls.(row.Trace.round))
            rows;
          if Array.fold_left ( + ) 0 calls = 0 then
            Alcotest.failf "%s: no duplicate heard" where)
        [ true; false ])
    [
      ("fault-free", Fault.none);
      ("loss", Fault.plan ~link_loss:0.2 ~push_loss:0.1 ~pull_loss:0.1 ());
      ("crashes", Fault.plan ~crash_rate:0.02 ~recover_rate:0.3 ());
    ]

(* Each round makes exactly one [decide] call per informed node of each
   started table, gated nodes included, in either store. Without faults
   or skew the nodes informed at the start of round [r] are those of
   row [r - 1] plus the sources of the tables created at [r - 1]; a
   no-op [on_round_end] closes each round's count. *)
let test_decide_once_per_informed () =
  let n = 256 and d = 6 in
  let topology = Topology.implicit_regular ~seed:31 ~n ~d in
  let base = Algorithm.make (Params.make ~alpha:1.0 ~fanout:4 ~n_estimate:n ~d ()) in
  let tables =
    [|
      { Kernel.sources = [ 0; 9 ]; created = 0 };
      { Kernel.sources = [ 17 ]; created = 2 };
      { Kernel.sources = [ 40; 41; 42 ]; created = 5 };
    |]
  in
  let gate ~informed:_ ~node ~round = (node + round) mod 3 <> 0 in
  List.iter
    (fun (gate, packed) ->
      let calls = ref 0 and per_round = ref [] in
      let protocol =
        {
          base with
          Protocol.decide =
            (fun st ~round ->
              incr calls;
              base.Protocol.decide st ~round);
          packed =
            Option.map
              (fun pk ->
                let ops = pk.Protocol.ops in
                {
                  pk with
                  Protocol.ops =
                    {
                      ops with
                      Protocol.p_decide =
                        (fun c ~round ->
                          incr calls;
                          ops.Protocol.p_decide c ~round);
                    };
                })
              base.Protocol.packed;
        }
      in
      let r =
        Kernel.run ?gate ~packed ~collect_trace:true
          ~on_round_end:(fun _ ->
            per_round := !calls :: !per_round;
            calls := 0)
          ~rng:(Rng.create 3) ~topology ~protocol ~tables ()
      in
      let started r =
        Array.fold_left
          (fun acc (t : Kernel.table) ->
            if t.Kernel.created = r - 1 then acc + List.length t.Kernel.sources
            else acc)
          0 tables
      in
      let _, expected =
        List.fold_left
          (fun (before, acc) (row : Trace.row) ->
            (row.Trace.informed, (before + started row.Trace.round) :: acc))
          (0, [])
          (Trace.rows (Option.get r.Kernel.trace))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "gated %b, packed %b: decide calls per round"
           (gate <> None) packed)
        expected !per_round)
    [ (None, true); (None, false); (Some gate, true); (Some gate, false) ]

(* The skip must actually fire where it is meant to, and only there: a
   wrong enabling condition would pass every differential above, which
   compare results, not work. [neighbor] calls are counted through a
   wrapped view. An idle channel is counted without its callee only
   when nothing can fail, in either store; otherwise its callee is
   resolved and checked, as the reference resolves every callee. *)
let counted topology =
  let calls = ref 0 in
  ( {
      topology with
      Topology.neighbor =
        (fun v i ->
          incr calls;
          topology.Topology.neighbor v i);
    },
    calls )

let test_idle_callee_if_can_fail () =
  let n = 4096 and d = 8 in
  let view = Topology.implicit_regular ~seed:42 ~n ~d in
  let bef = Algorithm.make (Params.make ~alpha:1.0 ~fanout:4 ~n_estimate:n ~d ()) in
  let run ?(fault = Fault.none) ?on_round_end ?packed protocol =
    let topology, calls = counted view in
    let r =
      Engine.run ?packed ?on_round_end ~fault ~rng:(Rng.create 9) ~topology
        ~protocol ~sources:[ 17 ] ()
    in
    (r, !calls)
  in
  let r, calls = run bef in
  let _, boxed_calls = run ~packed:false bef in
  Alcotest.(check bool) "bef covers" true (r.Engine.informed = n);
  if calls >= r.Engine.channels / 2 then
    Alcotest.failf "fault-free bef: %d neighbor calls for %d channels" calls
      r.Engine.channels;
  Alcotest.(check int) "boxed bef skips the same callees" calls boxed_calls;
  let r, calls = run (Baselines.push_pull ~fanout:1 ~horizon:40 ()) in
  Alcotest.(check int) "push-pull resolves every channel" r.Engine.channels
    calls;
  (* When a channel can fail, every idle callee is resolved to check it,
     exactly as the reference does. A no-op [on_round_end] changes no
     result, so the reference runs without it. *)
  List.iter
    (fun (what, fault, on_round_end) ->
      let r, calls = run ~fault ?on_round_end bef in
      let topology, ref_calls = counted view in
      let reference =
        Ref_engine.run ~fault ~rng:(Rng.create 9) ~topology ~protocol:bef
          ~sources:[ 17 ] ()
      in
      Alcotest.(check bool) (what ^ ": run = reference") true
        (same_engine_ref r reference);
      if calls <> !ref_calls || calls < r.Engine.channels then
        Alcotest.failf "%s: %d neighbor calls, reference %d, %d channels" what
          calls !ref_calls r.Engine.channels)
    [
      ("crash_rate 0.01", Fault.plan ~crash_rate:0.01 (), None);
      ("call_failure 0.01", Fault.plan ~call_failure:0.01 (), None);
      ( "partition",
        Fault.plan ~partition:(Fault.partition ~split_at:2 ~heal_at:6 ()) (),
        None );
      ("on_round_end", Fault.none, Some (fun _ -> ()));
    ]

(* [alive] is never called per channel. Without node faults the
   delivery loop calls it only for source injection and the quiescence scan, a
   few calls per node over the whole run. Under [crash_rate] each round
   calls it once per node in the fault tick and once in the liveness
   rebuild: at most 2 per node-round, where a check per initiator and
   per callee would be 1 + 4 for bef. *)
let test_alive_tick_and_rebuild () =
  let n = 4096 and d = 8 in
  let view = Topology.implicit_regular ~seed:42 ~n ~d in
  let bef = Algorithm.make (Params.make ~alpha:1.0 ~fanout:4 ~n_estimate:n ~d ()) in
  let run ?gate ?on_round_end fault =
    let calls = ref 0 in
    let topology =
      {
        view with
        Topology.alive =
          (fun v ->
            incr calls;
            view.Topology.alive v);
      }
    in
    let r =
      kernel_run ?gate ?on_round_end ~fault ~stop_when_complete:false
        ~rng:(Rng.create 9) ~topology ~protocol:bef ~sources:[ 17 ] ()
    in
    (r, !calls)
  in
  let r, calls = run Fault.none in
  if calls > 2 * n then
    Alcotest.failf "fault-free: %d alive calls over %d rounds of %d nodes"
      calls r.Kernel.rounds n;
  let gate ~informed:_ ~node ~round:_ = node land 1 = 0 in
  let _, gated = run ~gate Fault.none in
  if gated > 2 * n then
    Alcotest.failf "fault-free gated: %d alive calls" gated;
  (* The quiescence scan and the final down list add a pass or two
     over the nodes. *)
  List.iter
    (fun (what, gate, fault, on_round_end) ->
      let r, calls = run ?gate ?on_round_end fault in
      if calls > (2 * n * r.Kernel.rounds) + (3 * n) then
        Alcotest.failf "%s: %d alive calls over %d rounds of %d nodes" what
          calls r.Kernel.rounds n)
    [
      ("crash_rate 0.01", None, Fault.plan ~crash_rate:0.01 (), None);
      ("crash_rate 0.01 gated", Some gate, Fault.plan ~crash_rate:0.01 (), None);
      ("on_round_end", None, Fault.none, Some (fun _ -> ()));
    ]

(* ------------------------------------------------------------------ *)
(* Asynchronous trace accounting.                                     *)
(* ------------------------------------------------------------------ *)

let protocol () = Baselines.push_pull ~fanout:1 ~horizon:20 ()

(* One row per unit of continuous time, the run's final partial unit
   included: tracing draws nothing, and the rows sum to every
   transmission and every first receipt of the untraced run. *)
let test_async_trace () =
  let rng () = Rng.create 11 in
  let g = Regular.sample_connected ~rng:(rng ()) ~n:64 ~d:4 Regular.Pairing in
  let run collect_trace =
    Async.run ~collect_trace ~rng:(Rng.create 1213)
      ~topology:(Topology.of_graph g) ~protocol:(protocol ()) ~sources:[ 3 ] ()
  in
  let bare = run false and traced = run true in
  Alcotest.(check int) "activations unchanged by tracing"
    bare.Async.activations traced.Async.activations;
  Alcotest.(check int) "informed unchanged by tracing" bare.Async.informed
    traced.Async.informed;
  Alcotest.(check (float 0.)) "clock unchanged by tracing" bare.Async.time
    traced.Async.time;
  let rows = Trace.rows (Option.get traced.Async.trace) in
  Alcotest.(check (list int)) "one row per unit, in order"
    (List.init (List.length rows) (fun i -> i + 1))
    (List.map (fun (row : Trace.row) -> row.Trace.round) rows);
  let tx =
    List.fold_left
      (fun acc (row : Trace.row) -> acc + row.Trace.push_tx + row.Trace.pull_tx)
      0 rows
  in
  Alcotest.(check int) "trace rows account for every transmission"
    bare.Async.transmissions tx;
  let newly =
    List.fold_left
      (fun acc (row : Trace.row) -> acc + row.Trace.newly)
      0 rows
  in
  Alcotest.(check int) "trace rows account for every first receipt"
    (bare.Async.informed - 1) newly

let () =
  Alcotest.run "kernel"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            engine_differential;
            packed_boxed_differential;
            packed_codec_roundtrip;
            multi_singleton_differential;
            multi_census_differential;
            fault_free_differential;
            node_fault_differential;
            coin_differential;
            staging_skip_differential;
          ] );
      (* Alcotest shortens every printed test name by the length of the
         longest group name, so a group name stays within "differential". *)
      ( "decisions",
        [
          Alcotest.test_case "listeners hear every duplicate" `Quick
            test_listeners_hear_every_duplicate;
          Alcotest.test_case "one decide per informed node per round" `Quick
            test_decide_once_per_informed;
        ] );
      ( "idle skip",
        [
          Alcotest.test_case "callee resolved only if it can fail" `Quick
            test_idle_callee_if_can_fail;
          Alcotest.test_case "alive calls: tick and rebuild only" `Quick
            test_alive_tick_and_rebuild;
        ] );
      ( "trace",
        [
          Alcotest.test_case "async rows sum to the run's deliveries" `Quick
            test_async_trace;
        ] );
    ]
