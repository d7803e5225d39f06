(* The metric vocabulary with units, and the small statistics every
   workload shares. BENCHMARK.json lists the same names and units; the
   selftest fails when the two disagree. *)

let end_to_end =
  [
    ("broadcast_ms", "ms");
    ("throughput_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* Absolute floors that [compare] applies beside BENCHMARK.json's
   relative bounds: a shift of a median, or a quartile spread, smaller
   than its metric's floor is noise whatever its relative size. An
   implicit view's key schedule (about a microsecond) and a server start
   (a fraction of a millisecond) jitter by more than any relative bound. *)
let floors = [ ("setup_s", 1e-4) ]

let floor name = Option.value (List.assoc_opt name floors) ~default:0.

let per_layer =
  [
    ("kernel.ns_per_node_round", "ns");
    ("kernel.deliver_ns_per_node_round", "ns");
    ("kernel.apply_ns_per_node_round", "ns");
    ("kernel.feedback_ns_per_node_round", "ns");
    ("kernel.tail_ns_per_node_round", "ns");
    ("kernel.channels_per_node_round", "1/node-round");
    ("kernel.useful_channel_ratio", "ratio");
    ("kernel.heap_bytes_per_node", "B");
    ("topology.neighbor_per_node_round", "1/node-round");
    ("topology.alive_per_node_round", "1/node-round");
    ("topology.degree_per_node_round", "1/node-round");
    ("topology.neighbor_ns", "ns");
    ("topology.neighbor_share", "ratio");
    ("selector.select_ns", "ns");
    ("selector.select_share", "ratio");
    ("protocol.decide_per_node_round", "1/node-round");
    ("protocol.receive_per_node_round", "1/node-round");
    ("protocol.feedback_per_node_round", "1/node-round");
    ("protocol.quiescent_per_node_round", "1/node-round");
    ("gen.graph_build_s", "s");
    ("repair.epochs", "count");
    ("repair.epoch_rounds_share", "ratio");
    ("wire.parse_us", "us");
    ("wire.encode_us", "us");
    ("session.exec_ms", "ms");
    ("service.submit_us", "us");
    ("service.latency_ms.r100", "ms");
    ("service.latency_ms.r200", "ms");
    ("service.queue_wait_ms.r200", "ms");
    ("server.io_ms.r100", "ms");
    ("service.rejected", "count");
    ("service.retries", "count");
    ("service.max_tier", "count");
    ("load.gen_lag_ms", "ms");
    ("serve.p50_ms.r200", "ms");
    ("serve.p99_ms.r200", "ms");
    ("trace.overhead_pct", "%");
  ]

(* What one workload run reports. [failed] counts operations (a
   broadcast, a session) with at least one failed check; [failures]
   says why. *)
type run = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;
  records : Rumor_obs.Json.t list;
}

(* Quantiles interpolate linearly between order statistics. *)
let quantile l q =
  match l with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      Rumor_stats.Summary.percentile a q

let median l = quantile l 0.5
let sum l = List.fold_left ( +. ) 0. l

(* Share of [part] in [whole]; 0 when there is no whole. *)
let ratio part whole = if whole > 0. then part /. whole else 0.

let now_s () = Float.of_int (Int64.to_int (Monotonic_clock.now ())) *. 1e-9

(* Run [f 0], [f 1], ... while one more iteration of the median length
   still fits in [seconds], and at least [min] times. *)
let timeboxed ~seconds ~min f =
  let t0 = now_s () in
  let rec go k durations acc =
    let elapsed = now_s () -. t0 in
    if k >= min && elapsed +. median durations > seconds then List.rev acc
    else begin
      let s = now_s () in
      let x = f k in
      go (k + 1) ((now_s () -. s) :: durations) (x :: acc)
    end
  in
  go 0 [] []
