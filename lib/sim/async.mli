(** Asynchronous (continuous-time) execution of phone-call protocols.

    The paper's model is synchronous: all nodes act in lockstep rounds
    driven by a global clock. Real P2P systems are only loosely
    synchronised, and the standard asynchronous relaxation gives every
    node an independent rate-1 Poisson clock: when a node's clock
    rings, it opens its channels and transmits exactly as it would in a
    round. One unit of continuous time corresponds to one expected
    activation per node, so a protocol's round-indexed schedule maps
    onto time by [logical round = floor time + 1] — nodes still share
    a clock for {e timestamps} (message age), but not for {e actions}.

    Comparing {!run} against {!Engine.run} measures how much of the
    paper's analysis survives without the synchrony assumption
    (ablation A2 stresses bounded skew; this module removes lockstep
    entirely). The implementation is {!Kernel.run_async}, which shares
    the selection, fault-sampling, delivery and quiescence machinery
    with the synchronous kernel. *)

type result = Kernel.async_result = {
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

val run :
  ?fault:Fault.t ->
  ?stop_when_complete:bool ->
  ?collect_trace:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  sources:int list ->
  unit ->
  result
(** [run ~protocol ~sources ()] executes activations in Poisson order
    to the kernel's stopping rule (quiescence at the current logical
    round, continuous time [protocol.horizon], or — with
    [stop_when_complete] — the oracle-stopped accounting; see
    {!Kernel}). Only the [Uniform] selector is meaningful
    per-activation; stateful selectors are accepted and keep their
    per-node state across activations. [topology] is any view the
    synchronous drivers take (materialised or implicit) whose every id
    in [\[0, capacity)] is live. [fault] contributes its independent
    components, sampled per activation ({!Fault.channel_ok},
    {!Fault.delivery_ok} with the transmission's direction): call
    failure, link loss and asymmetric push/pull loss. Bursts, node
    faults and partition windows are ticked once per round by a
    {!Fault.runtime}, and a Poisson clock has no rounds, so a plan that
    uses them is rejected rather than silently reduced.
    @raise Invalid_argument if [sources] is empty or out of range, if
    some id of [topology] is dead, or if [fault] has a burst, a crash
    rate, a strike or a partition. *)
