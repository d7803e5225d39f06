(** Declarative scenario matrices: sweep grids, gates, shared-pool
    execution.

    A matrix file is a {!Scenario} file plus three directives:

    {v
    id     = E1                      # experiment id in the JSON document
    title  = tx/node vs n            # human title
    mode   = kernel                  # kernel (default) | service

    n        = 16384                 # plain keys form the base scenario
    protocol = bef

    sweep n        = 1k..64k *2      # a grid axis (int ranges; k = x1024)
    sweep protocol = bef, push       # enum axes sweep any scenario key
    zip   fanout   = 4, 1            # rides the most recent sweep axis

    expect coverage >= 1.0           # per-cell gates on the metrics
    expect wall_s   <= 120
    v}

    Axes cross into a cell grid in declaration order with the LAST
    axis fastest — the nesting order of the bench loops matrix files
    replace. Each cell is the base scenario with the axis (and zipped)
    values applied, then {!Scenario.validate}d.

    {2 Seeds}

    By default each cell's replication seed is drawn from one
    splitmix64 stream over the file's [seed] key — distinct cells never
    share a replication stream, and appending an axis value never
    reuses an earlier cell's seed for a different cell... as long as
    the grid shape is append-only; inserting values re-numbers cells.
    Annotating any axis with [seed+=N] ([sweep loss = 0, 0.1 seed+=10])
    switches the whole file to {e offset} seeds:
    [file seed + sum(stride * axis index)] — the arithmetic of the
    historical bench sweeps, which is what lets migrated experiments
    reproduce their frontier points bit-identically. Within a cell,
    repetition [r] always runs on [Rng.fork (Rng.create cell_seed) r].

    {2 Modes}

    [kernel] cells run {!Scenario.run_rep} — every (cell, repetition)
    pair is dispatched onto one shared domain pool
    ({!Rumor_stats.Experiment.run_tasks}), so grids of small cells
    saturate the machine without a per-cell spawn/join barrier.
    [service] cells instead describe a [rumor load] run (keys [rate],
    [duration_s], [closed], [crash_every], [wedge_every], [wedge_ms],
    [settle_timeout_s], [workers], [max_restarts], plus the
    session-shaped scenario keys); the binary injects the actual
    driver via [run_service]. *)

type mode = Kernel | Service

type axis = {
  axis_key : string;
  values : string list;  (** expanded, in sweep order *)
  stride : int;  (** seed offset per index (offset mode); 0 otherwise *)
  zips : (string * string list) list;
      (** zipped keys riding this axis (same length as [values]) *)
}

type op = Ge | Le | Gt | Lt | Eq

type gate = { metric : string; op : op; bound : float }

type spec = {
  id : string;
  title : string;
  mode : mode;
  base : Scenario.t;
  service_base : (string * string) list;
      (** load-generator keys (service mode) *)
  axes : axis list;  (** declaration order; last sweeps fastest *)
  gates : gate list;
  offset_seeds : bool;  (** any [seed+=] annotation present *)
}

type cell = {
  cell_index : int;
  coords : (string * string) list;
      (** axis and zip keys with this cell's values, declaration order *)
  scenario : Scenario.t;  (** base + coords applied, [seed = cell_seed] *)
  service : (string * string) list;
      (** resolved load-generator keys (service mode) *)
  cell_seed : int;
}

val op_to_string : op -> string

val gate_holds : gate -> float -> bool
(** Whether an observed metric value satisfies the gate. *)

val parse : string -> (spec, string) result
(** Parse matrix text. Errors carry the offending line number and its
    raw text; gate metrics are checked against the mode's vocabulary.
    CRLF and trailing whitespace are accepted (the scenario lexer's
    rules). Note cell-level value errors (an axis value out of range
    for its key, a cross-key conflict) surface from {!cells}, with
    cell coordinates instead of line numbers. *)

val parse_file : string -> (spec, string) result
(** Read and {!parse} a file; IO failures map to [Error]. *)

val cell_count : spec -> int
(** Cells in the grid (product of axis lengths; 1 with no axes). *)

val cells : spec -> (cell array, string) result
(** Expand the grid: every combination of axis values in row-major
    order (last axis fastest), each applied over the base scenario and
    validated, with its derived or offset seed. The first invalid cell
    aborts with its coordinates in the message. *)

val set_base : spec -> key:string -> value:string -> (spec, string) result
(** Override one base key (scenario or, in service mode, load key) —
    how the bench harness shrinks a committed matrix file with no quick
    twin for [--quick] and applies [--reps]. Axis values and per-cell
    seeds are untouched. *)

type cell_outcome = {
  cell : cell;
  reps_done : int;  (** completed repetitions (< reps when truncated) *)
  metrics : (string * float) list;
  per_seed : (string * float list) list;
      (** per-repetition coverage/rounds/tx lists (kernel mode) *)
  gate_results : (gate * float * bool) list;
      (** gate, observed value (nan if the metric is absent), pass *)
  results : Rumor_sim.Engine.result list;
      (** raw per-repetition results (kernel mode) *)
}

type run_result = {
  spec : spec;
  outcomes : cell_outcome list;
  truncated : bool;
      (** interrupted, or some cell has missing repetitions *)
}

val run :
  ?domains:int ->
  ?run_service:(cell -> (string * float) list) ->
  spec ->
  (run_result, string) result
(** Execute the grid. Kernel cells run on one shared domain pool
    (default size {!Rumor_stats.Experiment.default_domains}); under
    interruption ({!Rumor_stats.Experiment.interrupted}) the completed
    prefix is returned with [truncated = true]. Service cells run
    sequentially through [run_service] (required for service mode;
    [wall_s] is added to its metrics if absent), with an interruption
    check between cells. [Error] on grid-expansion failure. *)

val gates_failed : run_result -> int
(** Total failed gate evaluations across all cells. *)

val point_json : cell_outcome -> Rumor_obs.Json.t
(** One cell as a [rumor-bench/1] data point: [{coords, seed, reps,
    truncated, metrics, gates, per_seed_*}]. [coords] values are the
    literal axis strings — regression diffing matches on them
    exactly. *)

val data_json : run_result -> Rumor_obs.Json.t
(** The experiment [data] payload: [{mode, cells, gates_failed,
    truncated, points}]. *)

val results_table : run_result -> string
(** One row per kernel-mode cell: cell index, axis and zip coordinates,
    {!Scenario.protocol_name}, success %, coverage, tx/node, rounds and
    the mean final population. Only RNG-deterministic columns, so the
    rendering is identical across runs and domain counts. *)

val dry_run_table : spec -> (string, string) result
(** The expanded cell table (coordinates, seeds, reps) plus the gate
    list, without running anything — the [--dry-run] output and CI's
    cheap syntax check. *)
