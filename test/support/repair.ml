module Topology = Rumor_sim.Topology
include Rumor_core.Repair

let heal ?fault ?collect_trace ?monitor ?packed ~config ~rng ~graph ~protocol
    ~source () =
  self_heal ?fault ?collect_trace ?monitor ?packed ~config ~rng
    ~topology:(Topology.of_graph graph) ~protocol ~sources:[ source ] ()
