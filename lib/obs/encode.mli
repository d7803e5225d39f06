(** JSON serializers for the library's result types.

    These define the stable field names of the telemetry schema; the
    bench records ([BENCH_*.json]), the CLI's [--json] output and the
    [bench-check] validator all speak them. Add fields freely — removing
    or renaming one is a schema break that [bench-check] should learn
    about in the same PR. *)

val summary : Rumor_stats.Summary.t -> Json.t
(** [{count, mean, stddev, min, max, median, p10, p90}]. *)

val engine_result : Rumor_sim.Engine.result -> Json.t
(** [{rounds, completion_round, informed, population, push_tx, pull_tx,
     channels, success}]; self-healing runs additionally carry
    [{coverage, epochs_used, repair_tx, repair: [epoch, ...]}], one
    [{epoch, rounds, informed, population, coverage, repair_push_tx,
     repair_pull_tx, repair_channels}] per repair epoch
    (added fields only — the [rumor-bench/1] schema is unchanged for
    plain runs). The [knows] array and the trace are omitted — per-node
    payload delivery is not telemetry; use {!trace_ndjson} for
    per-round dumps. *)

val multi_result : Rumor_sim.Multi.result -> Json.t
(** [{rounds, channels, population, total_tx, all_complete,
     messages: [{completion_round, informed, transmissions}, ...]}]. The
    per-round trace is omitted — use {!trace_ndjson}. *)

val async_result : Rumor_sim.Async.result -> Json.t
(** [{activations, time, completion_time, informed, transmissions}].
    The per-unit trace is omitted — use {!trace_ndjson}. *)

val violation : Rumor_sim.Invariant.violation -> Json.t
(** One runtime-monitor violation: [{check, round, detail}] — the
    chaos runner's ([rumor chaos --json]) failure records. *)

val trace_ndjson : Rumor_sim.Trace.t -> string
(** Newline-delimited JSON, one per-round record
    [{round, informed, newly, push_tx, pull_tx, channels}] per line — the streaming
    format (ndjson / JSON Lines) plotting pipelines ingest directly. *)

val float_list : float list -> Json.t