(** Declarative experiment scenarios.

    A scenario is a plain-text [key = value] file (['#'] starts a
    comment) describing one repeated broadcast measurement:

    {v
    # 16k peers, lossy links, the paper's algorithm
    seed     = 7
    n        = 16384
    d        = 8
    topology = regular        # regular|hypercube|torus|complete|gnp|product-k5
                              # |implicit-regular|implicit-hypercube|implicit-chords
    protocol = bef            # bef|bef-seq|push|pull|push-pull|push-pull-age
                              # |quasirandom
    alpha    = 1.0
    fanout   = 4
    loss     = 0.05
    reps     = 5
    domains  = 0          # parallel replication; 0 = auto
    v}

    Lines may end in CRLF and carry trailing whitespace — files written
    on any platform parse identically.

    Fault-injection keys build a full {!Rumor_sim.Fault.t} plan:
    [burst_loss] / [burst_len] (Gilbert–Elliott bursty loss),
    [crash_rate] / [recover_rate] (crash-stop / crash-recovery),
    [crash_adversary] (none|random|degree|frontier) with [crash_count],
    [crash_round] and [strike_every] (0 = one-shot; [k > 0] re-fires
    the strike every [k] rounds, re-targeting each time — a recurring
    [frontier] strike is an adaptive adversary), [partition_round] /
    [heal_round] / [partition_fraction] (a transient partition window:
    split at [partition_round], heal at [heal_round] — required to be
    later), and [n_error] (the protocol is built with
    [n_estimate = n_error * n], testing the constant-factor-estimate
    claim).

    Churn keys [join_prob] / [leave_prob] run the broadcast on a
    mutable overlay with one {!Rumor_p2p.Churn.session} tick per round;
    joins re-enter uninformed. Either key nonzero enables the churn
    harness (and, with repair on, combines it with self-healing
    epochs). The alternative [churn_rate] key (mutually exclusive with
    [join_prob]/[leave_prob]) instead runs [churn_rate * n] symmetric
    sessions (join and leave both at probability 0.5) per round — the
    churn model of the self-healing frontier (bench E8). [churn_rate =
    0] still engages the overlay harness with zero sessions, which is
    what makes the E8 no-churn column reproducible.

    Self-healing keys enable {!Rumor_core.Repair} epochs after the main
    schedule: [max_epochs] (0, the default, disables repair),
    [repair_timeout] (silent rounds before an uninformed node pulls)
    and [repair_backoff] (randomized-backoff window cap). With repair
    on, runs use recovery amnesia (crash-recovered nodes restart
    uninformed) and the report gains epoch/overhead summaries.

    [source] picks the broadcast source: [random] (the default) draws
    it from the replication stream, [first] pins node 0 without
    consuming randomness. [stop] overrides the stop-at-full-coverage
    rule ([auto]: open-ended baselines stop at coverage, bef/bef-seq
    and push-pull-age run their own schedules out).

    The [implicit-*] topologies ({!Rumor_sim.Topology.implicit_regular}
    and friends) compute neighbours on the fly from a per-repetition
    seed instead of materialising a graph, lifting the practical scale
    ceiling from [n ~ 2^20] to [n = 10^7..10^8]. They accept every
    fault key (faults mutate liveness, never edges) and self-healing,
    but reject churn at parse time — churn rewires an overlay, which an
    implicit view has none of. Materialised topologies are capped at
    {!materialise_cap} nodes; beyond that, parsing (and {!make_graph})
    direct you to the implicit alternatives rather than letting the
    build die mid-allocation.

    Unknown keys, duplicate keys, malformed values and out-of-range
    parameters are rejected with a message carrying the offending line
    number {e and} its raw text. The CLI's
    [run] subcommand executes scenario files; the module is also the
    shared home of the topology/protocol factories used across the
    binaries. Sweep grids over these files are the matrix layer
    ({!module:Matrix}). *)

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
  burst_loss : float;  (** stationary bursty-loss rate; 0 disables *)
  burst_len : float;  (** mean burst length in rounds *)
  crash_rate : float;  (** per-node per-round crash probability *)
  recover_rate : float;  (** per-crashed-node per-round recovery probability *)
  crash_adversary : string;  (** none|random|degree|frontier *)
  crash_count : int;  (** nodes killed per strike firing *)
  crash_round : int;  (** round at which the strike (first) lands *)
  strike_every : int;  (** 0 = one-shot; k > 0 re-fires every k rounds *)
  partition_round : int;  (** round the partition opens; 0 = off *)
  heal_round : int;  (** round the partition heals; > [partition_round] *)
  partition_fraction : float;  (** minority-side probability per node *)
  join_prob : float;  (** per-round join probability (churn harness) *)
  leave_prob : float;  (** per-round leave probability (churn harness) *)
  churn_rate : float;
      (** rate-based churn: [churn_rate * n] symmetric sessions per
          round; negative (the default) = unset. [0] still engages the
          overlay harness. Mutually exclusive with
          [join_prob]/[leave_prob]. *)
  n_error : float;  (** n_estimate = n_error * n *)
  repair_timeout : int;
      (** silent rounds before an uninformed node starts pulling *)
  repair_backoff : int;  (** backoff window cap for repair pulls, rounds *)
  max_epochs : int;  (** repair epoch budget; 0 disables self-healing *)
  stop : string;
      (** stop-at-full-coverage: [auto] (default), [true] or [false].
          See {!effective_stop}. *)
  source : string;
      (** broadcast source: [random] (drawn from the replication
          stream) or [first] (node 0, no draw). *)
  reps : int;
  domains : int;
      (** OCaml domains for parallel replication; 0 (the default) means
          auto ({!Rumor_stats.Experiment.default_domains}). Results are
          bit-identical for every value. *)
  packed : bool;
      (** Store per-node protocol state in packed byte cells where the
          protocol supports it ({!Rumor_sim.Protocol.packed_ops});
          [false] forces the boxed arrays. Trajectories are
          bit-identical either way — the switch exists for memory A/B
          runs and as an escape hatch. Scenario key [packed]. *)
}

val default : t
(** [seed 1, n 16384, d 8, regular, bef, alpha 1.0, fanout 4, no
    faults, exact size estimate, 5 reps, auto domains]. *)

val topologies : string list
(** Accepted [topology] values. *)

val protocols : string list
(** Accepted [protocol] values. *)

val set_key : t -> key:string -> value:string -> (t, string) result
(** Apply one [key = value] assignment (both already trimmed). This is
    the full scalar surface of the scenario language — range checks
    included, cross-key checks deferred to {!validate}. Errors carry no
    line information; {!parse} adds it, and the matrix layer reuses
    [set_key] to build sweep cells. *)

val to_text : t -> string
(** Render a scenario as [key = value] lines, one per key in record
    order, floats as the shortest round-tripping decimal, such that
    [parse (to_text s) = Ok s] for every valid [s]. [churn_rate] is
    written only when set (non-negative). This is the one writer of
    the key list; chaos repro artifacts embed it. *)

val check_topology : topology:string -> n:int -> d:int -> (unit, string) result
(** Whether the generator behind a topology can build
    [(n, d)]: [regular] needs [3 <= d < n] with [n * d] even,
    [product-k5] the same of its base graph ([max 4 (n / 5)] nodes,
    degree [d - 4]), [gnp] needs [d <= n - 1], and [implicit-regular]
    and [implicit-chords] need [n <= 2^32]. Other topologies always
    pass. The error names the topology, [n] and [d]. *)

val validate : t -> (t, string) result
(** Cross-key checks run after the whole file is read: burst
    realisability, partition window ordering, churn vs implicit
    topologies, churn-model exclusivity, matching parity, the
    materialised-size cap, and {!check_topology}. *)

val parse : string -> (t, string) result
(** Parse scenario text over {!default}: {!set_key} per line with
    duplicate detection, then {!validate}. CRLF line endings and
    trailing whitespace are accepted. *)

val parse_file : string -> (t, string) result
(** Read and {!parse} a file; IO failures map to [Error]. *)

val is_implicit : string -> bool
(** Whether a topology name denotes a seed-derived implicit view
    (prefix ["implicit-"]) rather than a materialised graph. *)

val materialise_cap : int
(** Maximum [n] for which {!make_graph} will materialise a graph
    ([2^22]); larger runs must use an implicit topology. *)

val make_graph :
  rng:Rumor_rng.Rng.t -> topology:string -> n:int -> d:int ->
  Rumor_graph.Graph.t
(** Topology factory (shared with the CLI).
    @raise Failure on an unknown topology name, on an implicit
    topology (which is never materialised — use {!make_topology}), or
    when [n] exceeds {!materialise_cap}. *)

val make_topology :
  rng:Rumor_rng.Rng.t -> topology:string -> n:int -> d:int ->
  Rumor_sim.Topology.t
(** Like {!make_graph} but returns the kernel's topology view.
    Implicit names build seed-derived views (drawing one seed from
    [rng] for the randomised ones); materialised names delegate to
    {!make_graph} and wrap the result. The view's [capacity] may
    exceed [n] (implicit-hypercube rounds up to a power of two).
    @raise Failure as {!make_graph}.
    @raise Invalid_argument on invalid implicit parameters (odd [n]
    for implicit-regular, [d < 2] for implicit-chords, ...). *)

val make_protocol :
  ?n_estimate:int ->
  protocol:string -> n:int -> d:int -> alpha:float -> fanout:int -> unit ->
  Rumor_core.Algorithm.state Rumor_sim.Protocol.t
(** Protocol factory (shared with the CLI). [n_estimate] (default [n],
    clamped to >= 4) is the network-size estimate handed to the
    protocol's schedule; [n] remains the true size used for horizons.
    @raise Failure on an unknown protocol name. *)

val effective_stop : t -> bool
(** The stop-at-full-coverage flag a run will use: the [stop] key when
    explicit, otherwise [true] exactly for the open-ended baselines
    (everything but bef, bef-seq and push-pull-age, which carry their
    own schedules). *)

val fault_plan : t -> Rumor_sim.Fault.t
(** Assemble the scenario's fault keys into an engine fault plan. *)

val protocol_name : t -> string
(** The wire/display name of the scenario's protocol (e.g.
    ["bef-parallel-f4"]) — a pure function of the protocol, alpha and
    fanout keys; no RNG is touched. *)

val run_rep :
  ?monitor:Rumor_sim.Invariant.t ->
  ?collect_trace:bool ->
  ?graph:Rumor_graph.Graph.t ->
  t -> Rumor_rng.Rng.t -> Rumor_sim.Engine.result
(** One repetition of the scenario on [rng]: the single dispatch from a
    scenario to the kernel. {!run}, the matrix runner, the chaos
    harness and the [broadcast] and [heal] subcommands all execute
    through it.

    The draw order is a compatibility contract: graph or view sample,
    then the source, then the broadcast. The same stream always yields
    a bit-identical result whether dispatched here, via {!run}, or by
    the historical bench loops. Churn keys wrap the graph in a mutable
    overlay that resets rejoined ids to uninformed; the run fails with
    [Failure] if the overlay breaks its invariant. Repair epochs run
    when [max_epochs > 0]. Recovery amnesia is on under churn or
    repair and off otherwise.

    @param monitor invariant monitor checked at every round boundary
    (draws no randomness).
    @param collect_trace record per-round trace rows (default [false]).
    @param graph run on this graph instead of sampling one; only the
    graph draw is skipped, the source and the broadcast still draw
    from [rng]. The scenario's [topology] and [n] keys are then
    ignored. *)

type report = {
  scenario : t;
  protocol_name : string;
  success_rate : float;
  coverage : Rumor_stats.Summary.t;
  tx_per_node : Rumor_stats.Summary.t;
  rounds : Rumor_stats.Summary.t;
  epochs : Rumor_stats.Summary.t;
      (** repair epochs consumed per rep (all zero with repair off) *)
  repair_tx_per_node : Rumor_stats.Summary.t;
      (** transmissions spent inside repair epochs, per live node *)
}

val run : t -> report
(** Execute the scenario: [reps] broadcasts on fresh graphs with forked
    seeds, summarised. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable rendering of a report. *)
