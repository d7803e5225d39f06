(* A peer-to-peer scenario: an overlay maintained as a random regular
   graph by degree-preserving joins, leaves and edge switches, with
   rumors broadcast while peers come and go — the setting that motivates
   the paper (Section 1).

   Run with: dune exec examples/p2p_churn.exe *)

module Rng = Rumor_rng.Rng
module Traversal = Rumor_graph.Traversal
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Params = Rumor_core.Params
module Algorithm = Rumor_core.Algorithm
module Overlay = Rumor_p2p.Overlay
module Churn = Rumor_p2p.Churn
module Switcher = Rumor_p2p.Switcher
module Summary = Rumor_stats.Summary

let () =
  let rng = Rng.create 7 in
  let n = 8192 and d = 8 in

  (* Bootstrap the overlay from one sampled G(n,d) instance; give it
     room to grow. *)
  let seed_graph = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  let overlay = Overlay.of_graph ~capacity:(4 * n) seed_graph in
  Printf.printf "bootstrapped overlay: %d peers, degree %d\n"
    (Overlay.node_count overlay) d;

  (* Simulate 10 epochs. In each epoch: peers churn, the edge-switch
     chain re-randomises the topology, and one rumor is broadcast. *)
  let coverages = ref [] in
  for epoch = 1 to 10 do
    (* A burst of churn: ~2% of the population joins, ~2% leaves. *)
    for _ = 1 to Overlay.node_count overlay / 50 do
      ignore (Churn.session overlay ~rng ~d ~join_prob:1.0 ~leave_prob:1.0 ())
    done;
    (* Re-randomise with the local switch Markov chain [16,29]. *)
    Switcher.scramble overlay ~rng ~passes:2;

    (* Broadcast a fresh rumor from a random live peer, with churn
       continuing underneath the broadcast. *)
    let source = Overlay.random_node overlay rng in
    let protocol =
      Algorithm.make
        (Params.make ~alpha:2.0 ~n_estimate:(Overlay.node_count overlay) ~d ())
    in
    let res =
      Engine.run ~rng
        ~on_round_end:(fun _ ->
          Churn.session overlay ~rng ~d ~join_prob:0.3 ~leave_prob:0.3 ())
        ~topology:(Overlay.to_topology overlay)
        ~protocol ~sources:[ source ] ()
    in
    let coverage =
      float_of_int res.Engine.informed /. float_of_int res.Engine.population
    in
    coverages := coverage :: !coverages;
    Printf.printf
      "epoch %2d: %5d peers, rumor reached %5d (coverage %.4f) in %d rounds, %.1f tx/node\n"
      epoch res.Engine.population res.Engine.informed coverage res.Engine.rounds
      (float_of_int (Engine.transmissions res) /. float_of_int res.Engine.population)
  done;

  let s = Summary.of_list !coverages in
  Printf.printf "\ncoverage over 10 epochs: mean %.4f, min %.4f\n" s.Summary.mean
    s.Summary.min;
  let snapshot = Overlay.snapshot overlay in
  Printf.printf "final overlay: %d peers, connected %b, invariant %b\n"
    (Overlay.node_count overlay)
    (Traversal.largest_component snapshot >= Overlay.node_count overlay)
    (Overlay.invariant overlay)
