(** The synchronous random phone call engine.

    Each round executes the paper's [open; transmit; receive; close]
    schedule:

    + every live node opens channels to [fanout] distinct random
      neighbours (per the protocol's {!Selector.spec});
    + every informed node is asked for a {!Protocol.decision}; [push]
      sends the rumor over the node's outgoing channels, [pull] over
      its incoming channels;
    + nodes that received the rumor for the first time update their
      state; they can transmit from the next round on;
    + all channels close.

    Transmissions are counted per channel use — including redundant
    deliveries to already-informed nodes — which is the quantity the
    paper's theorems bound.

    This module is the single-rumor driver of the shared {!Kernel}: one
    table, the whole fault plan driven through a runtime. The stopping rule
    (horizon, quiescence, the oracle-stopped [stop_when_complete]
    accounting), the randomness-order contract and the census invariant
    are documented once, on {!Kernel}. *)

type epoch_stat = Kernel.epoch_stat = {
  epoch : int;  (** 1-based repair epoch index *)
  epoch_rounds : int;  (** rounds the epoch executed *)
  epoch_informed : int;  (** informed live nodes at the epoch's end *)
  epoch_population : int;  (** live nodes at the epoch's end *)
  repair_push_tx : int;  (** push transmissions spent by the epoch *)
  repair_pull_tx : int;  (** pull transmissions spent by the epoch *)
  repair_channels : int;  (** channels the epoch opened *)
}
(** Accounting for one self-healing repair epoch (see {!run_epochs}).
    Shared with {!Kernel.epoch_stat}. *)

type change = Kernel.change =
  | Joined of int  (** the id came alive: it restarts uninformed *)
  | Left of int  (** the id died: it keeps its flags, uncounted *)
(** One membership change reported by [on_round_end] (see {!run}).
    Shared with {!Kernel.change}. *)

type result = {
  rounds : int;  (** rounds actually executed (including repair epochs) *)
  completion_round : int option;
      (** first round at whose end every live node was informed (main
          schedule only — repair rounds are not counted here) *)
  informed : int;  (** informed live nodes at the end of the run *)
  population : int;  (** live nodes at the end of the run *)
  push_tx : int;  (** total push transmissions *)
  pull_tx : int;  (** total pull transmissions *)
  channels : int;  (** total channels successfully opened *)
  knows : Bitset.t;
      (** final informed flag per node id (length = topology capacity) —
          lets applications deliver the payload to exactly the reached
          nodes; one bit per node so 10^8-node results stay small *)
  down : int list;
      (** node ids crashed (and not yet recovered) when the run stopped;
          [[]] without node faults *)
  repair : epoch_stat list;
      (** per-epoch repair accounting, oldest first; [[]] for plain
          {!run} results *)
  trace : Trace.t option;  (** per-round rows when requested *)
}

val transmissions : result -> int
(** [push_tx + pull_tx]. *)

val success : result -> bool
(** Every live node informed when the run stopped. *)

val epochs_used : result -> int
(** Repair epochs the run consumed ([List.length r.repair]). *)

val repair_tx : result -> int
(** Total transmissions spent inside repair epochs. *)

val coverage : result -> float
(** [informed / population] (0 on an empty network). *)

val run :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  ?stop_when_complete:bool ->
  ?forget_on_recover:bool ->
  ?on_round_end:(int -> change list) ->
  ?skew:(int -> int) ->
  ?monitor:Invariant.t ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  sources:int list ->
  unit ->
  result
(** [run ~rng ~topology ~protocol ~sources ()] broadcasts one rumor
    initially known to [sources], stopping per the {!Kernel} stopping
    rule: at the protocol's [horizon], earlier once every informed node
    is quiescent, or — when [stop_when_complete] is set (default
    false) — at the end of the first round in which every live node is
    informed (the oracle-stopped accounting). [on_round_end r] fires
    at the end of each round [r] and may mutate the topology (churn)
    but must not change [capacity]. It returns the round's membership
    changes in the order they happened: every node it added as
    [Joined v], every node it removed as [Left v]; a hook that changes
    no node (a heartbeat, an edge rewiring) returns [[]]. A [Joined]
    id restarts uninformed even when it recycles a departed peer's id
    with that peer's stale flag; a [Left] id is no longer counted. An
    unreported change leaves the census wrong (the invariant monitor
    records it). Edges may change freely.

    [fault] is a full {!Fault.t} plan, ticked at the start of every
    round: burst (Gilbert–Elliott) chains advance, nodes crash and
    recover at the plan's rates, and adversarial strikes land. Crashed
    nodes open no channels, transmit nothing, receive nothing and are
    excluded from [population] / [informed] / completion accounting
    until they recover (with their state intact). A plan with no
    faults draws no randomness, so results with [Fault.none] are
    bit-identical to a run without the argument.

    [skew v] is node [v]'s clock offset: the paper assumes perfectly
    synchronised clocks, and this knob breaks that assumption — node
    [v] evaluates its protocol at logical round [round - skew v]
    (clamped so that a node whose clock has not started yet stays
    silent and not yet quiescent). Default: no skew. The horizon grows
    by the largest skew so late clocks still finish their schedule.

    [forget_on_recover] (default false) models {e recovery amnesia}: a
    node that recovers from a crash lost its volatile state, re-enters
    the uninformed census and restarts from [protocol.init
    ~informed:false] — instead of resuming with stale [knows] state.

    Performance note: the kernel keeps its live/informed census from
    the events that move it, the hook's changes included (see the
    census invariant on {!Kernel}), so installing [on_round_end] adds
    only its own calls: no per-round recount, and no liveness checks
    in a round in which every id is alive and up.

    [packed] (default [true]) stores per-node protocol state in a flat
    {!Cells.t} when the protocol declares {!Protocol.packed} ops — a
    few bytes per node instead of a boxed record; [~packed:false]
    forces the boxed representation. Both stores run the same delivery
    loop and apply staged updates in ascending id order, so results are
    bit-identical (see the delivery-loop section on {!Kernel}).
    @raise Invalid_argument if [sources] is empty or contains a dead or
    out-of-range id, or if a change names an id outside
    [\[0, capacity)]. *)

type 'st epoch_plan = 'st Kernel.epoch_plan = {
  epoch_protocol : 'st Protocol.t;
      (** protocol for one repair epoch (its [horizon] bounds the
          epoch's length) *)
  epoch_gate : informed:bool -> node:int -> round:int -> bool;
      (** per-round gate for the epoch: silences informed nodes and
          schedules uninformed pulls (timeout + backoff) *)
}
(** One repair epoch's behaviour, built fresh per epoch by the strategy
    callback of {!run_epochs}. Shared with {!Kernel.epoch_plan}. *)

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
  sources:int list ->
  unit ->
  result
(** [run_epochs ~rng ~topology ~protocol ~repair ~sources ()] runs the
    main broadcast schedule once ({!run}, forwarding [fault],
    [collect_trace], [forget_on_recover] and [on_round_end], which
    applies to the main run only), then — while
    some live node is uninformed and at most [max_epochs] (default 8)
    times — asks [repair ~epoch ~knows] for a fresh {!epoch_plan} and
    re-runs the kernel with every current knower as a source and the
    plan's gate installed ({!Kernel.gate}: consulted once per live node
    per round before it opens its channels; [false] means it initiates
    nothing that round but can still answer). Epochs keep the fault plan's
    {e communication} modes (link/call loss, asymmetric loss, bursts)
    but drop the node-dynamics modes ([crash_rate], [strike]): those
    act on the main timeline, a fresh {!Fault.runtime} per epoch brings
    crashed nodes back up (between-epoch recovery), and perpetual
    mid-repair amnesia would make the total-coverage target
    unreachable by construction. [knows] is the current per-id informed
    bitset; treat it as read-only.

    The returned result aggregates the whole healing run: [rounds],
    [push_tx], [pull_tx] and [channels] are cumulative across the main
    schedule and all epochs, [repair] holds one {!epoch_stat} per epoch
    in order, and [informed]/[population]/[knows] describe the final
    state. Epochs stop early once every live node is informed; the loop
    also stops if the rumor went extinct (no live knower remains — with
    nobody to pull from, repair cannot make progress).

    Churn note: [on_round_end] only fires inside the main run; repair
    epochs execute on the topology as it stands, so harnesses that
    churn the overlay should do so from the main schedule.
    @raise Invalid_argument if [max_epochs < 0] or [sources] is invalid
    for {!run}. *)
