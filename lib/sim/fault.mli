(** Composable fault injection.

    The paper claims the algorithm "efficiently handles limited
    communication failures"; this module is the adversary that tests
    the claim. A {e fault plan} ({!t}) layers several failure modes:

    - a {e call failure} drops the whole channel for the round (neither
      direction can be used), as if the connection attempt timed out;
    - {e link loss} drops each individual message transmission,
      independently;
    - {e per-direction loss} ([push_loss] / [pull_loss]) drops push or
      pull transmissions asymmetrically, on top of [link_loss];
    - a {e burst} puts each node's uplink through a Gilbert–Elliott
      two-state channel: in the bad state every transmission the node
      sends is lost, and bad states persist for [burst_len] rounds in
      expectation — correlated loss that i.i.d. coin flips cannot model;
    - {e crash-stop / crash-recovery}: nodes crash at rate [crash_rate]
      per round (recovering at [recover_rate] if nonzero, with their
      state intact), and an adversarial {!strike} can kill up to
      [count] chosen nodes at a chosen round — either once, or
      {e recurring} every [every] rounds, re-targeting each time it
      fires (a [Frontier] strike re-reads the informed set at every
      firing, so a recurring frontier strike is an adaptive adversary
      chasing the rumor);
    - a {e partition window} splits the node set in two at round
      [split_at] and heals it at round [heal_at]: while the window is
      open, no channel crosses the cut, modelling a transient network
      split without mutating the overlay itself.

    The stateless sampling helpers ({!channel_ok}, {!delivery_ok}) see
    only the independent components and serve the Poisson-clock runner
    ([Async], which rejects plans with stateful modes); the synchronous
    kernel behind [Engine] and [Multi] drives the full plan through a
    {!runtime}. A plan with no faults injects nothing and draws no
    randomness, so [Fault.none] leaves engine results bit-identical to
    a run without faults. *)

type burst = {
  loss : float;  (** long-run (stationary) fraction of transmissions lost *)
  burst_len : float;  (** mean bad-state duration in rounds, >= 1 *)
}

type adversary =
  | Random_nodes  (** crash uniformly random live nodes *)
  | Highest_degree  (** crash the best-connected nodes (deterministic) *)
  | Frontier  (** crash currently informed nodes — snipe the rumor *)

type strike = {
  at_round : int;  (** round at whose start the strike first lands, >= 1 *)
  count : int;  (** up to this many nodes are crashed per firing *)
  every : int;
      (** 0 = one-shot; [k > 0] re-fires the strike at [at_round],
          [at_round + k], [at_round + 2k], ... with targets re-chosen at
          each firing *)
  adversary : adversary;
}

type partition = {
  split_at : int;  (** round at whose start the network splits, >= 1 *)
  heal_at : int;  (** round at whose start the cut heals, > [split_at] *)
  cut_fraction : float;
      (** each node lands on the minority side with this probability *)
}

type t = {
  call_failure : float;  (** probability a channel fails to establish *)
  link_loss : float;  (** probability a single transmission is lost *)
  push_loss : float;  (** extra per-push loss (asymmetric links) *)
  pull_loss : float;  (** extra per-pull loss (asymmetric links) *)
  burst : burst option;  (** Gilbert–Elliott bursty loss, if any *)
  crash_rate : float;  (** per-node per-round crash probability *)
  recover_rate : float;  (** per-crashed-node per-round recovery probability *)
  strike : strike option;  (** adversarial kill schedule, if any *)
  partition : partition option;  (** transient network split, if any *)
}

val none : t
(** Fault-free communication. *)

val make : ?call_failure:float -> ?link_loss:float -> unit -> t
(** [make ()] builds an independent-failures-only plan; probabilities
    default to 0. Kept as the compatible constructor for the original
    two-parameter fault model.
    @raise Invalid_argument if a probability is outside [\[0, 1\]]. *)

val burst : loss:float -> burst_len:float -> burst
(** Validated Gilbert–Elliott parameters. The chain's stationary
    bad-state probability equals [loss].
    @raise Invalid_argument if [loss] is outside [\[0, 1)], [burst_len
    < 1], or [loss > burst_len / (burst_len + 1)] (no transition
    probability can realise that combination). *)

val strike :
  ?adversary:adversary ->
  ?every:int ->
  at_round:int ->
  count:int ->
  unit ->
  strike
(** Validated kill schedule ([adversary] defaults to {!Random_nodes},
    [every] to 0 = one-shot).
    @raise Invalid_argument if [at_round < 1], [count < 0] or
    [every < 0]. *)

val strike_fires : strike -> round:int -> bool
(** Whether the schedule lands at the start of [round]: true at
    [at_round] and, when [every > 0], every [every] rounds thereafter. *)

val partition :
  ?fraction:float -> split_at:int -> heal_at:int -> unit -> partition
(** Validated partition window ([fraction] defaults to 0.5: an even
    split in expectation). Sides are sampled per node when the window
    opens, so the cut is a random bisection, not a topological cut.
    @raise Invalid_argument if [split_at < 1], [heal_at <= split_at] or
    [fraction] is outside [\[0, 1\]]. *)

val plan :
  ?call_failure:float ->
  ?link_loss:float ->
  ?push_loss:float ->
  ?pull_loss:float ->
  ?burst:burst ->
  ?crash_rate:float ->
  ?recover_rate:float ->
  ?strike:strike ->
  ?partition:partition ->
  unit ->
  t
(** [plan ()] builds a full fault plan; every mode defaults to off.
    @raise Invalid_argument if a probability is outside [\[0, 1\]]. *)

val channel_ok : t -> Rumor_rng.Rng.t -> bool
(** Sample whether a channel establishes (independent component only). *)

val delivery_ok : ?dir:[ `Push | `Pull ] -> t -> Rumor_rng.Rng.t -> bool
(** Sample whether one transmission survives. Always applies the
    symmetric [link_loss]; when [dir] is given, the matching
    per-direction loss ([push_loss] or [pull_loss]) is layered on top,
    so the [Async] runner honours asymmetric plans. A zero probability
    draws nothing. This stateless view omits the {e stateful} modes —
    Gilbert–Elliott bursts, crash/recovery, strikes and partitions live
    in the {!runtime}, which only round-based runs tick. *)

(** {1 Engine runtime}

    The engine instantiates one {!runtime} per run and ticks it at the
    start of every round; the runtime owns the Gilbert–Elliott chain
    states, the crashed-node set and the partition sides, each a
    {!Bitset.t} of one bit per node (only for the modes the plan
    uses). *)

type runtime

val start : t -> capacity:int -> runtime
(** Fresh runtime for a topology with ids [0 .. capacity-1].
    @raise Invalid_argument if [capacity < 0]. *)

val begin_round :
  ?on_recover:(int -> unit) ->
  ?on_crash:(int -> unit) ->
  runtime ->
  rng:Rumor_rng.Rng.t ->
  round:int ->
  degree:(int -> int) ->
  alive:(int -> bool) ->
  informed:(int -> bool) ->
  unit
(** Advance one round: step every node's burst chain, recover and crash
    nodes at the plan's rates, land the adversarial strike when the
    schedule fires ({!strike_fires}), and open/close the partition
    window when [round] reaches [split_at]/[heal_at] (opening the
    window draws exactly [capacity] Bernoulli side assignments — dead
    nodes included — so the draw count never depends on run state).
    Draws nothing for modes the plan leaves off.
    [on_recover] fires once per node the moment it comes back up — the
    engine uses it to model recovery amnesia (the recovered node
    re-enters the uninformed census instead of keeping stale state).
    [on_crash] fires once per node the moment it goes down (rate crashes
    and strikes alike) — the engine maintains its live/informed census
    counters incrementally from these events instead of rescanning the
    population every round. Neither callback draws randomness, so
    installing them cannot perturb the fault stream. *)

val active : runtime -> int -> bool
(** [active rt v] — node [v] has not crashed (or has recovered). *)

val bursting : runtime -> int -> bool
(** [bursting rt v] — node [v]'s uplink is currently in the bad state. *)

val may_recover : runtime -> bool
(** Whether crashed nodes can come back (plan has [recover_rate] > 0). *)

val has_node_faults : t -> bool
(** Whether the plan can crash nodes ([crash_rate] > 0 or a strike). *)

val same_side : runtime -> int -> int -> bool
(** [same_side rt u v] — [u] and [v] can currently communicate across
    the partition: true whenever no window is open. Constant time. *)

val down_count : runtime -> int
(** Number of currently crashed nodes. *)

val push_ok : runtime -> Rumor_rng.Rng.t -> sender:int -> bool
(** Sample whether a push transmission from [sender] survives
    [link_loss], [push_loss] and [sender]'s burst state. *)

val pull_ok : runtime -> Rumor_rng.Rng.t -> sender:int -> bool
(** Sample whether a pull transmission from [sender] survives
    [link_loss], [pull_loss] and [sender]'s burst state. *)
