(** The shared round kernel behind {!Engine}, {!Multi} and {!Async}.

    The paper's single-message broadcast, its multi-message extension
    (rumors sharing blindly opened channels) and the asynchronous
    Poisson-clock relaxation all execute the same [open; transmit;
    receive; close] schedule. This module is that schedule, implemented
    once: channel selection via {!Selector}, fault gating via a
    {!Fault.runtime} ticked by {!Fault.begin_round}, bitset-backed
    informed state with an incrementally maintained census,
    cached-witness quiescence, clock skew and push/pull/channel
    accounting. The drivers are thin instantiations: {!Engine.run} is
    one table, {!Multi.run} is one table per message, {!Async.run} is
    {!run_async}.

    {2 The driver signature}

    Every driver takes [~rng ~topology ~protocol], its sources (or
    messages) and an optional {!Fault.t} plan. A synchronous run always
    drives the whole plan through a fresh {!Fault.runtime}: loss, call
    failure, Gilbert–Elliott bursts, crash/recovery, strikes and
    partition windows apply whichever driver asked. Beyond that a
    synchronous driver chooses:
    - the {e tables} — one {!table} per rumor, each with its own
      creation time, per-node protocol state, round decisions and
      transmission accounting, all sharing the round's channel set;
    - the {e hooks} — gate, the round hook [on_round_end] (which
      reports churn as {!change}s), recovery amnesia, skew, tracing.

    The asynchronous driver ({!run_async}) replaces lockstep rounds
    with Poisson activations; it shares the selection, fault-sampling,
    delivery and quiescence machinery but advances time per activation
    and applies deliveries immediately (decisions are {e not} cached —
    feedback can change a node's mind within a logical round). With no
    rounds to tick a runtime on, it samples only the plan's independent
    components.

    {2 Randomness-order contract}

    Simulation results are pinned by golden tests, so the kernel draws
    from [rng] in a fixed, documented order. Synchronous rounds draw:
    fault-runtime tick (burst chains, recoveries, crashes, strike when
    the schedule fires, partition side assignments when the window
    opens) — then per live initiator in id order: neighbour
    selection, then per opened channel: channel establishment, then per
    table: push-delivery loss for deciders, pull-delivery loss for
    answering partners. A call blocked by an open partition window is
    skipped {e before} the channel-establishment draw, exactly like a
    call to a dead node. Hooks, census maintenance, tracing and the
    invariant monitor draw nothing; a plan mode that is off draws
    nothing.

    Asynchronous runs draw: inter-activation exponential, activated
    node id, then selection and fault sampling as above. At the end of
    a synchronous round staged updates are applied as described next.

    {2 The delivery loop}

    Both per-node state stores take one delivery loop. A protocol that
    declares {!Protocol.packed} ops stores its per-node state as int
    codes in a flat {!Cells.t} (1–4 bytes per node) instead of an ['st
    array] of boxed records. Together with bitset decisions and
    receipt staging, this takes a table from ~9 machine words per node
    to a few bytes per node, which is what lets the paper's Algorithms
    1/2 run at n = 10^8. Pass [~packed:false] to force the boxed
    representation (differential testing, debugging); results are
    bit-identical.

    Each round, after the fault tick and the injections, one ascending
    pass over each table's informed set calls [decide] once per
    informed node (a node whose logical round has not started is
    [silent] without a call) and records the answers in two bitsets.
    The loop then reads a push or pull decision as one bit; no
    per-node decision stamp exists. [decide] is pure ({!Protocol.t}),
    so deciding early, or deciding a gated or crashed node that no
    channel reaches, is unobservable.

    Only a table whose protocol listens stages duplicates: one whose
    [feedback] (or packed [p_feedback]) is not {!Protocol.no_feedback}
    (or {!Protocol.p_no_feedback}), recognised by physical equality.
    The others allocate no tallies and skip the feedback phase. A
    listening table counts duplicates in 16-bit cells: more than 65535
    redundant deliveries by one node in one round raises
    [Invalid_argument] (explicit failure, never a silent wrap).

    Per up initiator the loop calls [gate] (when given, before
    [topology.degree]), [topology.degree] and the selector, and reads
    each table's push bit. What the loop checks is fixed per run by
    what can fail:
    - {e A node can be down} in a round whose census, taken after the
      fault tick, counts fewer live nodes than ids: some id is dead
      (never joined, or left) or crashed. The loop then rebuilds an
      [up] bitset, one [topology.alive] and one {!Fault.active} call
      per node, and checks initiators and callees by reading one bit.
      Otherwise it checks nothing per node.
    - {e A channel can fail} when a node can be down, under a
      partition plan or with [call_failure > 0]. Each
      selected callee is then resolved and the channel counted when the
      callee is up, on the caller's side and {!Fault.channel_ok}
      passes. Otherwise no per-channel check runs.
    - {e Idle channels.} A channel whose caller pushes in no table, in
      a round in which no informed node of any table answers pulls,
      carries nothing: it gets no delivery. When no channel can fail it
      is counted without resolving its callee ([topology.neighbor] is
      not called for it: on [bef] over an implicit view, about 70%
      fewer calls). When one can, its callee is resolved and checked
      as above, so the channel draw is still made.
    Each skipped check would return [true] without drawing, so the draw
    order above, the channel count and every result are those of a loop
    that checks every initiator and channel. Cost per node-round:
    nothing extra fault-free; in a round with a node down the
    rebuild's two calls per node and a bit read per initiator and
    callee; under a partition a side check per channel; under call
    failure a Bernoulli draw per channel.

    At the end of each round every table applies its staged first
    receipts, then (when it listens) its duplicate feedback, in
    ascending node id order
    (a word-parallel bitset scan), whatever the delivery order was. A
    protocol whose [receive], [feedback] or [init] draws from its own
    rng (the Demers coin variants) therefore sees those draws assigned
    in id order.

    {2 Census invariant}

    The kernel keeps one census: the live count (alive and not
    crashed), and per table its informed live nodes and its informed
    crashed ones. It never rescans for them; it moves them on the only
    events that change them — source injection, receipt, crash,
    recovery, recovery amnesia and the {!change}s [on_round_end]
    returns. [topology.alive] may therefore change only through those
    changes: a hook that adds or removes a node must report it, in the
    order it happened. A [Joined] id restarts uninformed in every table
    ([init ~informed:false], table by table) and counts as live unless
    the fault runtime holds it down; a [Left] id keeps its flags and
    leaves the census. The census draws no randomness and serves the
    stopping rule, completion and the final counts without an
    O(capacity) rescan. Passing [?monitor] makes this contract (and the
    accounting ones) executable: the kernel recounts everything from
    the bitsets at each round boundary and records any disagreement,
    an unreported membership change included — see {!Invariant}.

    {2 Stopping rule}

    A run stops at the shared horizon
    [max over tables (created + protocol.horizon) + max skew], or
    earlier at the end of a round in which every table is quiescent (a
    table is quiescent when its creation round has passed and every
    informed live node's protocol is quiescent at its next logical
    round; an informed {e crashed} node that may still recover keeps
    the system non-quiescent), or — when [stop_when_complete] is set —
    at the end of the first round in which every table has completed
    (every live node informed). The latter is the {e oracle-stopped}
    accounting used when measuring baseline message complexity: real
    nodes cannot detect global completion, so oracle-stopped
    transmission counts are lower bounds for protocols without a
    termination rule. *)

type table = {
  sources : int list;  (** nodes that know this rumor at [created] *)
  created : int;
      (** round at whose end the rumor appears; [0] = present from the
          start, [c > 0] injects at the start of round [c + 1] *)
}
(** One rumor's specification. Tables share every round's channel set;
    each runs the protocol at its own logical round
    [round - created - skew v]. *)

type table_result = {
  completion_round : int option;
      (** first round at whose end every live node knew this rumor *)
  informed : int;  (** informed live nodes at the end of the run *)
  push_tx : int;  (** push transmissions of this rumor *)
  pull_tx : int;  (** pull transmissions of this rumor *)
  knows : Bitset.t;
      (** final informed flag per node id (length = capacity) *)
}

type result = {
  rounds : int;  (** rounds executed *)
  population : int;  (** live (and not crashed) nodes at the end *)
  channels : int;  (** channels opened — shared by all tables *)
  down : int list;
      (** ids crashed and not recovered when the run stopped (ascending);
          [[]] without node faults *)
  trace : Trace.t option;
      (** per-round rows when requested; [informed] / [newly] sum over
          tables *)
  tables : table_result array;  (** indexed like the input *)
}

type gate = informed:bool -> node:int -> round:int -> bool
(** Consulted once per live node per round before the node opens its
    channels; [false] means the node initiates nothing (it still
    answers). With several tables, [informed] means informed in {e all}
    of them. *)

type change =
  | Joined of int  (** the id came alive: it restarts uninformed *)
  | Left of int  (** the id died: it keeps its flags, uncounted *)
(** One membership change, as the round hook reports it (see the census
    invariant above). *)

val run :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  ?stop_when_complete:bool ->
  ?gate:gate ->
  ?forget_on_recover:bool ->
  ?on_round_end:(int -> change list) ->
  ?skew:(int -> int) ->
  ?monitor:Invariant.t ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  tables:table array ->
  unit ->
  result
(** Run the synchronous round loop to the stopping rule above.
    [packed] (default [true]) selects the compact {!Cells}-backed state
    store when the protocol declares packed ops; it has no effect
    otherwise. Both stores run the same loop, so results are
    bit-identical either way.

    [fault] (default {!Fault.none}, which draws nothing) is driven
    through a fresh {!Fault.runtime} ticked at the start of every
    round. [skew], [forget_on_recover] and [on_round_end] behave as
    documented on {!Engine.run}; they apply uniformly to every table.
    [gate] (see {!gate}; repair epochs install one) defaults to every
    node opening its channels every round, with no call made.
    A [Joined] change and recovery amnesia clear {e every} table's flag
    for the node (a wiped node lost all rumors). [monitor] installs the
    runtime invariant monitor ({!Invariant}): every check is recomputed
    from scratch at each round boundary and compared against the
    kernel's incremental answers; it draws nothing and never changes
    the run.

    Sources must be alive and in range — drivers validate and report
    their own error messages; the kernel itself checks only that
    [tables] is non-empty and that changes name ids in range. Empty
    source lists are allowed (the table just starts with nobody
    informed).
    @raise Invalid_argument if [tables] is empty or a change names an
    id outside [\[0, capacity)]. *)

(** {1 Repair epochs}

    The self-healing loop behind {!Engine.run_epochs}, on one table. *)

type epoch_stat = {
  epoch : int;  (** 1-based repair epoch index *)
  epoch_rounds : int;  (** rounds the epoch executed *)
  epoch_informed : int;  (** live knowers at the epoch's end *)
  epoch_population : int;  (** live nodes at the epoch's end *)
  repair_push_tx : int;  (** push transmissions spent by the epoch *)
  repair_pull_tx : int;  (** pull transmissions spent by the epoch *)
  repair_channels : int;  (** channels the epoch opened *)
}
(** Accounting for one self-healing repair epoch. *)

type 'st epoch_plan = {
  epoch_protocol : 'st Protocol.t;
      (** protocol for one repair epoch (its [horizon] bounds the
          epoch's length) *)
  epoch_gate : gate;
      (** per-round gate for the epoch: silences informed nodes and
          schedules uninformed pulls (timeout + backoff) *)
}
(** One repair epoch's behaviour, built fresh per epoch by the strategy
    callback of {!run_epochs}. *)

val run_epochs :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  ?forget_on_recover:bool ->
  ?on_round_end:(int -> change list) ->
  ?max_epochs:int ->
  ?monitor:Invariant.t ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  repair:(epoch:int -> knows:Bitset.t -> 'r epoch_plan) ->
  table:table ->
  unit ->
  result * epoch_stat list
(** Run the main schedule once on [table] under [fault], then —
    while there is a live knower and a live non-knower, and at most
    [max_epochs] (default 8) times — ask [repair ~epoch ~knows] for a
    fresh {!epoch_plan} and re-run the kernel with every current knower
    as the sources and the plan's gate installed. Epochs keep the
    plan's communication modes but drop [crash_rate] / [strike]; see
    {!Engine.run_epochs} for the rationale, churn note and accounting.
    The returned result has one table and aggregates rounds /
    transmissions / channels across the main run and all epochs; its
    [completion_round] is the {e main} run's.
    @raise Invalid_argument if [max_epochs < 0]. *)

(** {1 Asynchronous driver} *)

type async_result = {
  activations : int;  (** node activations executed *)
  time : float;  (** continuous time at the end of the run *)
  completion_time : float option;
      (** time at which the last node became informed *)
  informed : int;
  transmissions : int;  (** deliveries, counted as in {!Engine} *)
  trace : Trace.t option;
      (** one row per elapsed unit of continuous time (= logical round)
          when requested, final partial unit included *)
}

val run_async :
  ?fault:Fault.t ->
  ?stop_when_complete:bool ->
  ?collect_trace:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  sources:int list ->
  unit ->
  async_result
(** Poisson-clock execution: activations arrive at global rate [n],
    each activating a uniform node that opens its channels and
    transmits as in a synchronous round at logical round
    [floor time + 1]; deliveries apply immediately. The run stops once
    every informed node is quiescent (checked every [4n] activations),
    at continuous time [protocol.horizon], or — with
    [stop_when_complete] — as soon as everyone is informed (the
    oracle-stopped accounting; see the stopping rule above). Every id
    in [\[0, capacity)] is activated as a live node. Only [fault]'s
    independent components are sampled ({!Fault.channel_ok}, and
    {!Fault.delivery_ok} with the transmission's direction); bursts,
    node faults and partitions need rounds to tick a runtime on.
    Per-node state is packed when the protocol declares packed ops.
    Tracing draws nothing. Sources, liveness and the plan are not
    validated here — {!Async.run} does that. *)
