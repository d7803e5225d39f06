(** Convenience entry points: run a protocol on a static graph. *)

val random_source : Rumor_rng.Rng.t -> Rumor_graph.Graph.t -> int
(** A uniformly random vertex to start the rumor at.
    @raise Invalid_argument on the empty graph. *)

val once :
  ?collect_trace:bool ->
  ?stop_when_complete:bool ->
  rng:Rumor_rng.Rng.t ->
  graph:Rumor_graph.Graph.t ->
  protocol:'st Rumor_sim.Protocol.t ->
  source:int ->
  unit ->
  Rumor_sim.Engine.result
(** Broadcast once from [source] on a static graph, fault-free, with
    packed per-node state when the protocol declares it. Faults, churn
    and the other hooks go through {!Rumor_sim.Engine.run}. *)
