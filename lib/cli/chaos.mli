(** Chaos soak harness: randomised fault configurations, runtime
    invariants, shrinking repros.

    The golden tests pin a handful of trajectories; this module attacks
    the complement of that set. {!sample} draws a random scenario
    (topology x protocol x loss x bursts x crashes x recurring strikes
    x partition windows x churn x repair) from one root seed, {!run_one}
    executes it deterministically with the {!Rumor_sim.Invariant}
    monitor installed, and any violation or uncaught exception is
    {!shrink}-greedily minimised and serialised as a
    {e repro artifact} — a [rumor-chaos/1] text file holding the full
    scenario plus the expected trajectory digest. [rumor replay]
    re-runs an artifact bit-identically and diffs the digest, so a
    repro captured in CI reproduces on any machine.

    Everything here is deterministic: the same root seed yields the
    same configs, runs, digests and artifacts. No wall clock, no
    global state. *)

type outcome = {
  scenario : Scenario.t;
  digest : string;
      (** 16-hex-char splitmix64 digest of every observable of the run
          (final census, totals, completion round, crashed ids, repair
          epochs, trace rows): any trajectory divergence changes it *)
  violations : Rumor_sim.Invariant.violation list;
      (** recorded violations, oldest first (capped by the monitor) *)
  violation_count : int;  (** total violations, including uncapped ones *)
  checked : int;  (** round boundaries the monitor inspected *)
  error : string option;  (** uncaught exception, if the run crashed *)
  rounds : int;
  coverage : float;
  completed : bool;
}

val failed : outcome -> bool
(** Any invariant violation or uncaught exception. *)

val run_one : ?check:bool -> Scenario.t -> outcome
(** Execute one repetition of the scenario ([reps]/[domains] are
    ignored — chaos runs are single-rep by construction) through
    {!Scenario.run_rep} on [Rng.create seed], with trace collection on
    and, unless [check:false], the invariant monitor installed. The
    monitor never draws randomness, so the digest is
    independent of [check]. An uncaught exception is captured in
    [error] (digest ["0000000000000000"]) rather than propagated. *)

val sample : Rumor_rng.Rng.t -> Scenario.t
(** Draw one random chaos configuration. Axes and weights are chosen so
    most samples are adversarial (some fault axis on) while a fraction
    stay clean as control runs; [reps = 1], [domains = 1]. *)

val shrink : ?budget:int -> fails:(Scenario.t -> bool) -> Scenario.t -> Scenario.t
(** Greedy minimisation to a fixpoint: repeatedly try zeroing one fault
    axis at a time (loss, bursts, crashes, strikes, partition, churn,
    repair, size estimate error, halving [n]), keeping any
    simplification for which [fails] still holds, until none applies or
    [budget] (default 40) candidate runs are spent. *)

val artifact : ?notes:string list -> digest:string -> Scenario.t -> string
(** The [rumor-chaos/1] repro format: comment header (plus one comment
    line per note), an [expect_digest = <16 hex>] line, then
    {!Scenario.to_text}. *)

val parse_artifact : string -> (Scenario.t * string, string) result
(** Parse an artifact back into its scenario and expected digest. The
    [expect_digest] line is stripped before the rest is handed to
    {!Scenario.parse}, so errors carry scenario line positions. *)

val parse_artifact_file : string -> (Scenario.t * string, string) result
(** Read and {!parse_artifact} a file; IO failures map to [Error]. *)
