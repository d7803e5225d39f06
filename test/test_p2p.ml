(* Tests for the rumor_p2p library: dynamic overlays, degree-preserving
   churn, the edge-switch chain, and the replicated database. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Traversal = Rumor_test_support.Traversal
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Engine = Rumor_sim.Engine
module Overlay = Rumor_p2p.Overlay
module Churn = Rumor_test_support.Churn
module Switcher = Rumor_p2p.Switcher
module Replica = Rumor_p2p.Replica

let regular_overlay ~seed ~n ~d ~capacity =
  let rng = Rng.create seed in
  let g = Regular.sample_connected ~rng ~n ~d Regular.Pairing in
  Overlay.of_graph ~capacity g

let degrees_live o =
  List.filter_map
    (fun v -> if Overlay.is_alive o v then Some (Overlay.degree o v) else None)
    (List.init (Overlay.capacity o) (fun i -> i))

(* --- Overlay --- *)

let test_overlay_create_empty () =
  let o = Overlay.create ~capacity:10 in
  Alcotest.(check int) "capacity" 10 (Overlay.capacity o);
  Alcotest.(check int) "no nodes" 0 (Overlay.node_count o);
  Alcotest.(check int) "no edges" 0 (Overlay.edge_count o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o)

let test_overlay_activate () =
  let o = Overlay.create ~capacity:3 in
  let a = Overlay.activate o in
  let b = Overlay.activate o in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "two nodes" 2 (Overlay.node_count o);
  Alcotest.(check bool) "alive" true (Overlay.is_alive o a);
  ignore (Overlay.activate o);
  Alcotest.check_raises "at capacity" (Failure "Overlay.activate: at capacity")
    (fun () -> ignore (Overlay.activate o))

let test_overlay_edges () =
  let o = Overlay.create ~capacity:4 in
  let a = Overlay.activate o and b = Overlay.activate o in
  Overlay.add_edge o a b;
  Alcotest.(check int) "degree a" 1 (Overlay.degree o a);
  Alcotest.(check int) "one edge" 1 (Overlay.edge_count o);
  Alcotest.(check (list int)) "neighbors" [ b ] (Overlay.neighbors o a);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o);
  Alcotest.(check bool) "remove succeeds" true (Overlay.remove_edge o a b);
  Alcotest.(check int) "no edges" 0 (Overlay.edge_count o);
  Alcotest.(check bool) "remove absent fails" false (Overlay.remove_edge o a b)

let test_overlay_parallel_edges () =
  let o = Overlay.create ~capacity:2 in
  let a = Overlay.activate o and b = Overlay.activate o in
  Overlay.add_edge o a b;
  Overlay.add_edge o a b;
  Alcotest.(check int) "degree counts copies" 2 (Overlay.degree o a);
  Alcotest.(check bool) "remove one copy" true (Overlay.remove_edge o a b);
  Alcotest.(check int) "one copy left" 1 (Overlay.degree o a);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o)

let test_overlay_self_loop () =
  let o = Overlay.create ~capacity:1 in
  let a = Overlay.activate o in
  Overlay.add_edge o a a;
  Alcotest.(check int) "loop degree 2" 2 (Overlay.degree o a);
  Alcotest.(check int) "one edge" 1 (Overlay.edge_count o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o);
  Alcotest.(check bool) "remove loop" true (Overlay.remove_edge o a a);
  Alcotest.(check int) "degree 0" 0 (Overlay.degree o a)

let test_overlay_deactivate () =
  let o = Overlay.create ~capacity:3 in
  let a = Overlay.activate o
  and b = Overlay.activate o
  and c = Overlay.activate o in
  Overlay.add_edge o a b;
  Overlay.add_edge o a c;
  Overlay.deactivate o a;
  Alcotest.(check bool) "gone" false (Overlay.is_alive o a);
  Alcotest.(check int) "edges removed" 0 (Overlay.edge_count o);
  Alcotest.(check int) "b degree" 0 (Overlay.degree o b);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o);
  Alcotest.check_raises "double deactivate"
    (Invalid_argument "Overlay.deactivate: not alive") (fun () ->
      Overlay.deactivate o a)

let test_overlay_dead_endpoint_rejected () =
  let o = Overlay.create ~capacity:2 in
  let a = Overlay.activate o in
  Alcotest.check_raises "dead endpoint"
    (Invalid_argument "Overlay.add_edge: dead endpoint") (fun () ->
      Overlay.add_edge o a 1)

let test_overlay_of_graph_snapshot_roundtrip () =
  let o = regular_overlay ~seed:1 ~n:50 ~d:4 ~capacity:60 in
  Alcotest.(check int) "nodes copied" 50 (Overlay.node_count o);
  Alcotest.(check int) "edges copied" 100 (Overlay.edge_count o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o);
  let g = Overlay.snapshot o in
  Alcotest.(check int) "snapshot n = capacity" 60 (Graph.n g);
  Alcotest.(check int) "snapshot edges" 100 (Graph.m g);
  for v = 0 to 49 do
    Alcotest.(check int) "snapshot degree" 4 (Graph.degree g v)
  done

let test_overlay_random_node () =
  let o = Overlay.create ~capacity:10 in
  let a = Overlay.activate o in
  let rng = Rng.create 2 in
  for _ = 1 to 20 do
    Alcotest.(check int) "only live node" a (Overlay.random_node o rng)
  done

let test_overlay_random_edge () =
  let o = regular_overlay ~seed:3 ~n:30 ~d:4 ~capacity:30 in
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    match Overlay.random_edge o rng with
    | None -> Alcotest.fail "edges exist"
    | Some (u, w) ->
        Alcotest.(check bool) "endpoints adjacent" true
          (List.mem w (Overlay.neighbors o u))
  done

let test_overlay_random_edge_empty () =
  let o = Overlay.create ~capacity:3 in
  ignore (Overlay.activate o);
  let rng = Rng.create 5 in
  Alcotest.(check bool) "no edges -> None" true (Overlay.random_edge o rng = None)

let test_overlay_topology_view () =
  let o = regular_overlay ~seed:6 ~n:20 ~d:4 ~capacity:25 in
  let t = Overlay.to_topology o in
  Alcotest.(check int) "capacity" 25 t.Rumor_test_support.Topology.capacity;
  Alcotest.(check int) "degree through view" 4 (t.Rumor_test_support.Topology.degree 0);
  Alcotest.(check bool) "dead id" false (t.Rumor_test_support.Topology.alive 24);
  (* Live view: mutations show through. *)
  Overlay.deactivate o 0;
  Alcotest.(check bool) "deactivation visible" false (t.Rumor_test_support.Topology.alive 0)

(* Pin the documented bounds contract: [neighbor] checks its index
   against the adjacency length (dead ids have length 0). *)
let test_overlay_neighbor_bounds () =
  let o = Overlay.create ~capacity:4 in
  let a = Overlay.activate o and b = Overlay.activate o in
  Overlay.add_edge o a b;
  Alcotest.(check int) "in range" b (Overlay.neighbor o a 0);
  Alcotest.check_raises "index = degree"
    (Invalid_argument "Overlay.neighbor: index") (fun () ->
      ignore (Overlay.neighbor o a 1));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Overlay.neighbor: index") (fun () ->
      ignore (Overlay.neighbor o a (-1)));
  Alcotest.check_raises "dead id has no entries"
    (Invalid_argument "Overlay.neighbor: index") (fun () ->
      ignore (Overlay.neighbor o 3 0))

(* The engine's view checks the same way: after an edge goes, an index
   that was valid a round ago must not read the stale slot behind the
   adjacency length. *)
let test_overlay_view_neighbor_bounds () =
  let o = Overlay.create ~capacity:4 in
  let a = Overlay.activate o in
  let b = Overlay.activate o and c = Overlay.activate o in
  Overlay.add_edge o a b;
  Overlay.add_edge o a c;
  let t = Overlay.to_topology o in
  let stale = t.Rumor_test_support.Topology.degree a - 1 in
  ignore (Overlay.remove_edge o a (t.Rumor_test_support.Topology.neighbor a 0));
  Alcotest.(check int) "degree shrank" stale (t.Rumor_test_support.Topology.degree a);
  Alcotest.check_raises "stale index"
    (Invalid_argument "Overlay.neighbor: index") (fun () ->
      ignore (t.Rumor_test_support.Topology.neighbor a stale))

(* --- Churn --- *)

let test_join_preserves_regularity () =
  let o = regular_overlay ~seed:7 ~n:40 ~d:4 ~capacity:50 in
  let rng = Rng.create 8 in
  let fresh = Churn.join o ~rng ~d:4 in
  Alcotest.(check int) "41 nodes" 41 (Overlay.node_count o);
  Alcotest.(check int) "newcomer degree" 4 (Overlay.degree o fresh);
  List.iter
    (fun d -> Alcotest.(check int) "still 4-regular" 4 d)
    (degrees_live o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o)

let test_join_odd_degree_rejected () =
  let o = regular_overlay ~seed:9 ~n:10 ~d:4 ~capacity:20 in
  let rng = Rng.create 9 in
  Alcotest.check_raises "odd d"
    (Invalid_argument "Churn.join: d must be positive and even") (fun () ->
      ignore (Churn.join o ~rng ~d:3))

let test_leave_preserves_regularity () =
  let o = regular_overlay ~seed:10 ~n:40 ~d:4 ~capacity:40 in
  let rng = Rng.create 11 in
  let gone = Churn.leave_random o ~rng in
  Alcotest.(check bool) "departed" false (Overlay.is_alive o gone);
  Alcotest.(check int) "39 nodes" 39 (Overlay.node_count o);
  List.iter
    (fun d -> Alcotest.(check int) "still 4-regular" 4 d)
    (degrees_live o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o)

let test_churn_storm_keeps_structure () =
  (* 200 random join/leave operations: regularity and symmetry hold
     throughout; this is the main churn stress test. *)
  let o = regular_overlay ~seed:12 ~n:30 ~d:4 ~capacity:100 in
  let rng = Rng.create 13 in
  for _ = 1 to 200 do
    ignore (Churn.session o ~rng ~d:4 ~join_prob:0.5 ~leave_prob:0.5 ())
  done;
  Alcotest.(check bool) "invariant after storm" true (Overlay.invariant o);
  List.iter (fun d -> Alcotest.(check int) "4-regular" 4 d) (degrees_live o);
  Alcotest.(check bool) "population sane" true (Overlay.node_count o >= 6)

let test_leave_not_alive () =
  let o = Overlay.create ~capacity:2 in
  let rng = Rng.create 14 in
  Alcotest.check_raises "dead node" (Invalid_argument "Churn.leave: not alive")
    (fun () -> Churn.leave o ~rng ~node:0)

(* --- Switcher --- *)

let test_switch_preserves_degrees () =
  let o = regular_overlay ~seed:15 ~n:50 ~d:6 ~capacity:50 in
  let rng = Rng.create 16 in
  let before = degrees_live o in
  let applied = Switcher.run o ~rng ~steps:500 in
  Alcotest.(check bool) "some switches applied" true (applied > 100);
  Alcotest.(check (list int)) "degrees unchanged" before (degrees_live o);
  Alcotest.(check bool) "invariant" true (Overlay.invariant o)

let test_switch_preserves_edge_count () =
  let o = regular_overlay ~seed:17 ~n:40 ~d:4 ~capacity:40 in
  let rng = Rng.create 18 in
  let m = Overlay.edge_count o in
  ignore (Switcher.run o ~rng ~steps:300);
  Alcotest.(check int) "edge count constant" m (Overlay.edge_count o)

let test_switch_actually_rewires () =
  let o = regular_overlay ~seed:19 ~n:40 ~d:4 ~capacity:40 in
  let rng = Rng.create 20 in
  let before = Graph.to_edges (Overlay.snapshot o) in
  Switcher.scramble o ~rng ~passes:3;
  let after = Graph.to_edges (Overlay.snapshot o) in
  Alcotest.(check bool) "topology changed" true (before <> after)

let test_switch_empty_overlay () =
  let o = Overlay.create ~capacity:3 in
  let rng = Rng.create 21 in
  Alcotest.(check bool) "no edges -> reject" false (Switcher.switch_once o ~rng);
  Alcotest.(check int) "run applies none" 0 (Switcher.run o ~rng ~steps:10)

let test_switch_no_self_loops_on_simple_start () =
  let o = regular_overlay ~seed:22 ~n:30 ~d:4 ~capacity:30 in
  let rng = Rng.create 23 in
  Switcher.scramble o ~rng ~passes:5;
  let g = Overlay.snapshot o in
  Alcotest.(check int) "no self loops created" 0 (Graph.count_self_loops g)

(* --- Replica --- *)

let test_replica_write_read () =
  let r = Replica.create ~capacity:4 in
  let v1 = Replica.local_write r ~node:0 ~key:7 ~data:100 in
  Alcotest.(check (option (pair int int))) "read back" (Some (100, v1))
    (Replica.read r ~node:0 ~key:7);
  Alcotest.(check (option (pair int int))) "other replica empty" None
    (Replica.read r ~node:1 ~key:7);
  Alcotest.(check int) "store size" 1 (Replica.store_size r ~node:0)

let test_replica_versions_monotone () =
  let r = Replica.create ~capacity:2 in
  let v1 = Replica.local_write r ~node:0 ~key:1 ~data:10 in
  let v2 = Replica.local_write r ~node:0 ~key:1 ~data:20 in
  Alcotest.(check bool) "versions increase" true (v2 > v1)

let test_replica_apply_last_writer_wins () =
  let r = Replica.create ~capacity:2 in
  Alcotest.(check bool) "new key applies" true
    (Replica.apply r ~node:0 ~key:5 ~data:1 ~version:10);
  Alcotest.(check bool) "older ignored" false
    (Replica.apply r ~node:0 ~key:5 ~data:2 ~version:4);
  Alcotest.(check (option (pair int int))) "kept newer" (Some (1, 10))
    (Replica.read r ~node:0 ~key:5);
  Alcotest.(check bool) "newer applies" true
    (Replica.apply r ~node:0 ~key:5 ~data:3 ~version:11)

let test_replica_broadcast_delivers () =
  let o = regular_overlay ~seed:24 ~n:128 ~d:8 ~capacity:128 in
  let r = Replica.create ~capacity:128 in
  let rng = Rng.create 25 in
  let params = Rumor_core.Params.make ~n_estimate:128 ~d:8 () in
  let protocol = Rumor_core.Algorithm.make params in
  let res =
    Replica.broadcast ~rng ~overlay:o ~protocol r ~origin:0 ~key:42 ~data:4242
  in
  Alcotest.(check bool) "broadcast completed" true (Engine.success res);
  for node = 0 to 127 do
    match Replica.read r ~node ~key:42 with
    | Some (4242, _) -> ()
    | Some _ | None -> Alcotest.failf "node %d missed the update" node
  done;
  Alcotest.(check (float 1e-9)) "staleness 0" 0.
    (Replica.staleness r ~overlay:o ~key:42);
  Alcotest.(check bool) "converged" true (Replica.converged r ~overlay:o)

let test_replica_staleness_partial () =
  let o = regular_overlay ~seed:26 ~n:10 ~d:4 ~capacity:10 in
  let r = Replica.create ~capacity:10 in
  ignore (Replica.local_write r ~node:0 ~key:1 ~data:5);
  let s = Replica.staleness r ~overlay:o ~key:1 in
  Alcotest.(check (float 1e-9)) "9 of 10 stale" 0.9 s;
  Alcotest.(check bool) "unknown key nan" true
    (Float.is_nan (Replica.staleness r ~overlay:o ~key:999))

let test_replica_anti_entropy_converges () =
  let o = regular_overlay ~seed:27 ~n:32 ~d:4 ~capacity:32 in
  let r = Replica.create ~capacity:32 in
  ignore (Replica.local_write r ~node:0 ~key:1 ~data:11);
  ignore (Replica.local_write r ~node:5 ~key:2 ~data:22);
  let rng = Rng.create 28 in
  let rounds = ref 0 in
  while (not (Replica.converged r ~overlay:o)) && !rounds < 100 do
    ignore (Replica.anti_entropy_round ~rng ~overlay:o r);
    incr rounds
  done;
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d rounds" !rounds)
    true
    (Replica.converged r ~overlay:o);
  Alcotest.(check (float 1e-9)) "key 1 fresh everywhere" 0.
    (Replica.staleness r ~overlay:o ~key:1)

let test_replica_anti_entropy_counts_transfers () =
  let o = regular_overlay ~seed:29 ~n:16 ~d:4 ~capacity:16 in
  let r = Replica.create ~capacity:16 in
  ignore (Replica.local_write r ~node:0 ~key:9 ~data:1);
  let rng = Rng.create 30 in
  let t1 = Replica.anti_entropy_round ~rng ~overlay:o r in
  Alcotest.(check bool) "first round transfers > 0" true (t1.Replica.transfers > 0);
  Alcotest.(check bool) "compared >= transferred" true
    (t1.Replica.compared >= t1.Replica.transfers);
  (* After convergence a round transfers nothing but still compares. *)
  for _ = 1 to 50 do
    ignore (Replica.anti_entropy_round ~rng ~overlay:o r)
  done;
  let late = Replica.anti_entropy_round ~rng ~overlay:o r in
  Alcotest.(check int) "quiescent when converged" 0 late.Replica.transfers;
  Alcotest.(check bool) "digest cost persists" true (late.Replica.compared > 0)

let test_replica_converged_detects_difference () =
  let o = regular_overlay ~seed:31 ~n:8 ~d:4 ~capacity:8 in
  let r = Replica.create ~capacity:8 in
  Alcotest.(check bool) "empty stores converged" true
    (Replica.converged r ~overlay:o);
  ignore (Replica.local_write r ~node:3 ~key:1 ~data:1);
  Alcotest.(check bool) "divergence detected" false
    (Replica.converged r ~overlay:o)

(* --- Broadcast under churn (engine + overlay together) --- *)

let test_broadcast_survives_churn () =
  let o = regular_overlay ~seed:32 ~n:512 ~d:8 ~capacity:1024 in
  let rng = Rng.create 33 in
  let params = Rumor_core.Params.make ~alpha:2.0 ~n_estimate:512 ~d:8 () in
  let protocol = Rumor_core.Algorithm.make params in
  let res =
    Engine.run ~rng
      ~on_round_end:(fun _ ->
        Churn.session o ~rng ~d:8 ~join_prob:0.8 ~leave_prob:0.8 ())
      ~topology:(Overlay.to_topology o)
      ~protocol ~sources:[ 0 ] ()
  in
  (* Nodes that joined late may miss the rumor; the overwhelming majority
     must still be informed. *)
  let coverage =
    float_of_int res.Engine.informed /. float_of_int res.Engine.population
  in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.3f >= 0.95" coverage)
    true (coverage >= 0.95);
  Alcotest.(check bool) "overlay still sane" true (Overlay.invariant o)

(* --- regression: a late joiner needs the repair layer ---

   The newcomer arrives after every pusher has stopped transmitting, so
   without repair it provably ends the run uninformed; under
   [Repair.self_heal], fed by the same round hook, it must end
   informed. Both arms rebuild the same seeded overlay and rng. *)

let bounded_pusher ~push_until ~horizon =
  {
    Rumor_sim.Protocol.name = "bounded-push";
    selector = Rumor_sim.Selector.Uniform { fanout = 1 };
    horizon;
    init = (fun ~informed -> informed);
    decide =
      (fun st ~round ->
        ignore st;
        { Rumor_sim.Protocol.push = round <= push_until; pull = false });
    receive = (fun _ ~round -> ignore round; true);
    feedback = Rumor_sim.Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > horizon);
    packed = None;
  }

let late_join_arm ~with_repair =
  let n = 64 and d = 8 in
  let o = regular_overlay ~seed:51 ~n ~d ~capacity:(2 * n) in
  let rng = Rng.create 52 in
  let newcomer = ref (-1) in
  let on_round_end r =
    if r = 13 then begin
      let v = Churn.join o ~rng ~d in
      newcomer := v;
      [ Engine.Joined v ]
    end
    else []
  in
  let protocol = bounded_pusher ~push_until:12 ~horizon:16 in
  let topology = Overlay.to_topology o in
  let res =
    if with_repair then
      Rumor_test_support.Repair.self_heal
        ~config:(Rumor_test_support.Repair.config ~n ())
        ~on_round_end ~rng ~topology ~protocol ~sources:[ 0 ] ()
    else Engine.run ~on_round_end ~rng ~topology ~protocol ~sources:[ 0 ] ()
  in
  (res, !newcomer)

let test_late_join_needs_repair () =
  let bare, j = late_join_arm ~with_repair:false in
  Alcotest.(check bool) "a node joined" true (j >= 0);
  Alcotest.(check bool) "newcomer uninformed without repair" false
    (Rumor_test_support.Bitset.get bare.Engine.knows j);
  Alcotest.(check bool) "so the bare run fails" false (Engine.success bare);
  let healed, j' = late_join_arm ~with_repair:true in
  Alcotest.(check int) "same newcomer id" j j';
  Alcotest.(check bool) "newcomer informed under repair" true
    (Rumor_test_support.Bitset.get healed.Engine.knows j');
  Alcotest.(check bool) "healed run succeeds" true (Engine.success healed)

(* --- regression: a recycled id starts uninformed ---

   [Overlay.activate] hands a joining peer the lowest free id. With
   capacity = n, the only free id after the source leaves is the
   source's own, which is informed. Reported as [Left] then [Joined],
   the newcomer must count as uninformed rather than inherit the
   departed peer's flag. Nobody pushes after round 12, so nothing can
   inform it afterwards. *)
let test_recycled_id_starts_uninformed () =
  let n = 64 and d = 8 in
  let o = regular_overlay ~seed:51 ~n ~d ~capacity:n in
  let rng = Rng.create 52 in
  let newcomer = ref (-1) in
  let on_round_end r =
    if r = 13 then begin
      Churn.leave o ~rng ~node:0;
      let v = Churn.join o ~rng ~d in
      newcomer := v;
      [ Engine.Left 0; Engine.Joined v ]
    end
    else []
  in
  let monitor = Rumor_sim.Invariant.create () in
  let res =
    Engine.run ~monitor ~on_round_end ~rng ~topology:(Overlay.to_topology o)
      ~protocol:(bounded_pusher ~push_until:12 ~horizon:16)
      ~sources:[ 0 ] ()
  in
  Alcotest.(check int) "the newcomer recycles the source's id" 0 !newcomer;
  Alcotest.(check bool) "recycled id uninformed" false
    (Rumor_test_support.Bitset.get res.Engine.knows 0);
  Alcotest.(check int) "population unchanged" n res.Engine.population;
  Alcotest.(check bool) "the newcomer is counted uninformed" false
    (Engine.success res);
  Alcotest.(check int) "census exact" 0 (Rumor_sim.Invariant.count monitor)

(* --- qcheck properties --- *)

let prop_churn_preserves_regularity =
  QCheck.Test.make ~count:30 ~name:"random churn keeps the overlay d-regular"
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, ops) ->
      let o = regular_overlay ~seed ~n:20 ~d:4 ~capacity:80 in
      let rng = Rng.create (seed + 1000) in
      for _ = 1 to ops do
        ignore (Churn.session o ~rng ~d:4 ~join_prob:0.6 ~leave_prob:0.4 ())
      done;
      Overlay.invariant o
      && List.for_all (fun d -> d = 4) (degrees_live o))

let prop_switch_preserves_degree_multiset =
  QCheck.Test.make ~count:30 ~name:"switch chain preserves the degree multiset"
    QCheck.(pair small_int (int_range 0 300))
    (fun (seed, steps) ->
      let o = regular_overlay ~seed:(seed + 1) ~n:24 ~d:4 ~capacity:24 in
      let rng = Rng.create (seed + 2000) in
      let before = List.sort compare (degrees_live o) in
      ignore (Switcher.run o ~rng ~steps);
      Overlay.invariant o && List.sort compare (degrees_live o) = before)

(* --- capacity handling ---

   A saturated overlay must drop join ticks, not raise: the serve layer
   calls [Churn.session] from inside engine hooks where an exception
   would kill a worker domain. *)

let test_churn_session_at_capacity_never_raises () =
  (* capacity == n: there is no room for any join at all *)
  let o = regular_overlay ~seed:61 ~n:16 ~d:4 ~capacity:16 in
  let rng = Rng.create 62 in
  for _ = 1 to 200 do
    let ev = Churn.session o ~rng ~d:4 ~join_prob:1.0 ~leave_prob:0.0 () in
    Alcotest.(check bool) "saturated join tick dropped" true (ev = [])
  done;
  Alcotest.(check int) "population unchanged" 16 (Overlay.node_count o);
  Alcotest.(check bool) "overlay still sane" true (Overlay.invariant o)

let test_churn_session_refills_after_leaves () =
  let o = regular_overlay ~seed:63 ~n:16 ~d:4 ~capacity:16 in
  let rng = Rng.create 64 in
  (* Make room, then a join-only tick must fire again. *)
  ignore (Churn.leave_random o ~rng);
  let rec join_fires tries =
    if tries = 0 then false
    else
      let ev = Churn.session o ~rng ~d:4 ~join_prob:1.0 ~leave_prob:0.0 () in
      ev <> [] || join_fires (tries - 1)
  in
  Alcotest.(check bool) "join fires once capacity frees" true (join_fires 50);
  Alcotest.(check int) "back at capacity" 16 (Overlay.node_count o)

let live_count_of o =
  List.length
    (List.filter
       (fun v -> Overlay.is_alive o v)
       (List.init (Overlay.capacity o) (fun i -> i)))

let prop_churn_live_count_consistent =
  QCheck.Test.make ~count:40
    ~name:"join/leave streams keep node_count = |alive| (capacity respected)"
    QCheck.(triple small_int (int_range 1 60) (int_range 0 10))
    (fun (seed, ops, jp10) ->
      let capacity = 24 in
      let o = regular_overlay ~seed:(seed + 3000) ~n:16 ~d:4 ~capacity in
      let rng = Rng.create (seed + 4000) in
      let join_prob = float_of_int jp10 /. 10. in
      let ok = ref true in
      for i = 1 to ops do
        let leave_prob = if i mod 3 = 0 then 0.8 else 0.2 in
        ignore (Churn.session o ~rng ~d:4 ~join_prob ~leave_prob ());
        let counted = live_count_of o in
        ok :=
          !ok
          && Overlay.node_count o = counted
          && counted <= capacity
          && Overlay.invariant o
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_churn_preserves_regularity;
      prop_switch_preserves_degree_multiset;
      prop_churn_live_count_consistent;
    ]

let () =
  Alcotest.run "rumor_p2p"
    [
      ( "overlay",
        [
          Alcotest.test_case "create empty" `Quick test_overlay_create_empty;
          Alcotest.test_case "activate" `Quick test_overlay_activate;
          Alcotest.test_case "edges" `Quick test_overlay_edges;
          Alcotest.test_case "parallel edges" `Quick test_overlay_parallel_edges;
          Alcotest.test_case "self loop" `Quick test_overlay_self_loop;
          Alcotest.test_case "deactivate" `Quick test_overlay_deactivate;
          Alcotest.test_case "dead endpoint" `Quick test_overlay_dead_endpoint_rejected;
          Alcotest.test_case "of_graph/snapshot" `Quick
            test_overlay_of_graph_snapshot_roundtrip;
          Alcotest.test_case "random node" `Quick test_overlay_random_node;
          Alcotest.test_case "random edge" `Quick test_overlay_random_edge;
          Alcotest.test_case "random edge empty" `Quick test_overlay_random_edge_empty;
          Alcotest.test_case "topology view" `Quick test_overlay_topology_view;
          Alcotest.test_case "neighbor bounds" `Quick
            test_overlay_neighbor_bounds;
          Alcotest.test_case "view neighbor bounds" `Quick
            test_overlay_view_neighbor_bounds;
        ] );
      ( "churn",
        [
          Alcotest.test_case "join regular" `Quick test_join_preserves_regularity;
          Alcotest.test_case "join odd d" `Quick test_join_odd_degree_rejected;
          Alcotest.test_case "leave regular" `Quick test_leave_preserves_regularity;
          Alcotest.test_case "churn storm" `Quick test_churn_storm_keeps_structure;
          Alcotest.test_case "leave dead" `Quick test_leave_not_alive;
          Alcotest.test_case "session at capacity never raises" `Quick
            test_churn_session_at_capacity_never_raises;
          Alcotest.test_case "session refills after leaves" `Quick
            test_churn_session_refills_after_leaves;
        ] );
      ( "switcher",
        [
          Alcotest.test_case "degrees preserved" `Quick test_switch_preserves_degrees;
          Alcotest.test_case "edge count" `Quick test_switch_preserves_edge_count;
          Alcotest.test_case "rewires" `Quick test_switch_actually_rewires;
          Alcotest.test_case "empty overlay" `Quick test_switch_empty_overlay;
          Alcotest.test_case "no self loops" `Quick
            test_switch_no_self_loops_on_simple_start;
        ] );
      ( "replica",
        [
          Alcotest.test_case "write/read" `Quick test_replica_write_read;
          Alcotest.test_case "versions monotone" `Quick test_replica_versions_monotone;
          Alcotest.test_case "last writer wins" `Quick
            test_replica_apply_last_writer_wins;
          Alcotest.test_case "broadcast delivers" `Slow test_replica_broadcast_delivers;
          Alcotest.test_case "staleness" `Quick test_replica_staleness_partial;
          Alcotest.test_case "anti-entropy converges" `Quick
            test_replica_anti_entropy_converges;
          Alcotest.test_case "anti-entropy transfers" `Quick
            test_replica_anti_entropy_counts_transfers;
          Alcotest.test_case "converged detection" `Quick
            test_replica_converged_detects_difference;
        ] );
      ( "integration",
        [
          Alcotest.test_case "broadcast under churn" `Slow
            test_broadcast_survives_churn;
          Alcotest.test_case "late joiner needs repair" `Quick
            test_late_join_needs_repair;
          Alcotest.test_case "recycled id starts uninformed" `Quick
            test_recycled_id_starts_uninformed;
        ] );
      ("properties", qcheck_cases);
    ]
