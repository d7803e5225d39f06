module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Engine = Rumor_sim.Engine
module Topology = Rumor_sim.Topology

let random_source rng g =
  if Graph.n g = 0 then invalid_arg "Run.random_source: empty graph";
  Rng.int rng (Graph.n g)

let once ?collect_trace ?stop_when_complete ~rng ~graph ~protocol ~source () =
  Engine.run ?collect_trace ?stop_when_complete ~rng
    ~topology:(Topology.of_graph graph) ~protocol ~sources:[ source ] ()
