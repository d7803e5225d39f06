(** Seeded repetition of randomized measurements.

    Every experiment in the bench harness follows the same pattern:
    run a measurement under [reps] independent random streams (forked
    from a base seed, so any single repetition can be replayed) and
    summarise each extracted metric.

    {2 Graceful interruption}

    Long replications can be interrupted without orphaning worker
    domains: inside {!with_interrupt_signals}, SIGINT/SIGTERM set a
    process-wide flag that {!replicate} and {!replicate_parallel} poll
    between repetitions. On interruption every domain finishes the
    repetition it is on and is joined, and the call returns the
    {e completed subset} (possibly empty, in repetition order; each
    returned repetition is bit-identical to its uninterrupted
    counterpart because per-repetition streams are pre-forked). Callers
    that persist documents should check {!interrupted} afterwards and
    mark partial output (the bench harness flushes its [rumor-bench/1]
    record with [truncated: true]). *)

val interrupted : unit -> bool
(** Whether an interruption has been requested (signal or
    {!request_interrupt}). *)

val request_interrupt : unit -> unit
(** Set the interruption flag directly — what the signal handler does;
    exposed for tests and embedding services. *)

val with_interrupt_signals : (unit -> 'a) -> 'a
(** [with_interrupt_signals f] clears the interruption flag, installs
    SIGINT and SIGTERM handlers that set it, runs [f] and restores the
    previous handlers (also on exception). The flag is {e not} cleared
    on exit, so the caller can still observe a late interruption. *)

val replicate :
  seed:int -> reps:int -> (Rumor_rng.Rng.t -> 'a) -> 'a list
(** [replicate ~seed ~reps f] calls [f] once per repetition with an
    independent stream forked from [seed]. Returns the completed prefix
    when interrupted (see above); all [reps] results otherwise.
    @raise Invalid_argument if [reps < 1]. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] capped to [\[1, 8\]] — the
    domain count {!replicate_parallel} uses when none is given. *)

val replicate_parallel :
  ?domains:int -> seed:int -> reps:int -> (Rumor_rng.Rng.t -> 'a) -> 'a list
(** Same results as {!replicate} (bit-for-bit: repetition [i] always
    gets stream [fork seed i]), computed as a single {!run_tasks} task
    on up to [domains] (default {!default_domains}) OCaml domains. This
    is the default replication path of the bench harness and the
    sweep-style subcommands. [f] must not share mutable state across
    calls. Under interruption the completed subset is returned in
    repetition order and every domain is joined before the call
    returns — no orphans.
    @raise Invalid_argument if [reps < 1] or [domains < 1]. *)

type task = { seed : int; reps : int }
(** One unit of {!run_tasks} work: a replication with its own base
    seed. *)

val run_tasks :
  ?domains:int ->
  task array ->
  (task:int -> rep:int -> Rumor_rng.Rng.t -> 'a) ->
  'a option array array
(** [run_tasks tasks f] executes every (task, repetition) pair of the
    grid on one shared pool of up to [domains] (default
    {!default_domains}) OCaml domains — no per-task spawn/join barrier,
    so a grid of many small cells keeps all domains busy. Repetition
    [r] of task [t] runs on stream [fork tasks.(t).seed r], pre-forked
    before any domain starts; each task's results are therefore
    bit-identical to running that task alone through {!replicate} with
    the same seed. Returns one array per
    task, [Some] for completed repetitions; under interruption (see
    above) unstarted slots stay [None] and every domain is joined
    before the call returns. Work is dispatched in task-major order,
    so interruption leaves early tasks complete rather than all tasks
    half-done. [f] must not share mutable state across calls.
    @raise Invalid_argument if any [reps < 1] or [domains < 1]. *)

val summarize :
  seed:int -> reps:int -> (Rumor_rng.Rng.t -> float) -> Summary.t
(** Replicate a scalar measurement and summarise it. *)

val mean_of :
  seed:int -> reps:int -> (Rumor_rng.Rng.t -> float) -> float
(** Shorthand for [(summarize ...).mean]. *)
