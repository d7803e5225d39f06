(** Broadcasting many rumors over shared channels.

    The random phone call model opens channels {e blindly} — every node
    calls whether or not it has something to say. The paper (after
    [25]) argues this is the right model when messages are generated
    frequently, because one round's channels carry every active rumor
    at once and the per-message channel cost vanishes. This runner
    simulates exactly that: [k] rumors with independent creation times
    share one channel set per round, each following its own copy of the
    protocol schedule (ages are per-rumor), with per-rumor transmission
    accounting. It is a thin instantiation of {!Kernel} — one table per
    message — and inherits the kernel's stopping rule, fault runtime and
    census machinery. *)

type message = { source : int; created : int }
(** A rumor, injected at [source] at the end of round [created]
    (so it first transmits in round [created + 1]; use [created = 0]
    for a rumor present from the start). *)

type message_result = {
  completion_round : int option;
      (** absolute round at whose end every live node knew this rumor *)
  informed : int;  (** live nodes that ended up knowing it *)
  transmissions : int;  (** copies of this rumor delivered *)
}

type result = {
  rounds : int;  (** rounds executed *)
  channels : int;  (** channels opened — shared by all rumors *)
  population : int;  (** live nodes at the end *)
  messages : message_result array;  (** indexed like the input list *)
  trace : Trace.t option;
      (** per-round rows when requested ([informed] / [newly] sum over
          rumors) *)
}

val total_transmissions : result -> int
(** Sum of per-rumor transmissions. *)

val all_complete : result -> bool
(** Every rumor reached every live node. *)

val run :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  messages:message list ->
  unit ->
  result
(** [run ~messages ()] drives all rumors to the kernel's stopping rule
    (each rumor [m] runs its protocol with logical round
    [round - m.created]; see {!Kernel} for horizon and quiescence).
    [fault] applies in full, exactly as on {!Engine.run}: loss, call
    failure, bursts, crash/recovery, strikes and partition windows. A
    crashed node carries none of the rumors it knows until it recovers;
    a single message under any plan is the same simulation as
    {!Engine.run}.
    @raise Invalid_argument if [messages] is empty or a source is dead
    or out of range. *)
