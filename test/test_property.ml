(* Heavier cross-module properties: a model-based fuzz of the mutable
   overlay against a reference implementation, reachability soundness
   of the engine, and selector totality across all strategies. *)

module Rng = Rumor_test_support.Rng
module Graph = Rumor_test_support.Graph
module Traversal = Rumor_test_support.Traversal
module Classic = Rumor_test_support.Classic
module Regular = Rumor_gen.Regular
module Selector = Rumor_sim.Selector
module Engine = Rumor_sim.Engine
module Topology = Rumor_test_support.Topology
module Overlay = Rumor_p2p.Overlay
module Baselines = Rumor_core.Baselines
module Run = Rumor_core.Run

(* ------------------------------------------------------------------ *)
(* Model-based overlay fuzz: replay a random operation sequence on the
   real overlay and on a naive reference (association multiset), then
   compare observable state. *)
(* ------------------------------------------------------------------ *)

module Model = struct
  (* Reference implementation: alive set + edge multiset as a sorted
     pair list. Slow and obviously correct. *)
  type t = { mutable alive : int list; mutable edges : (int * int) list }

  let create () = { alive = []; edges = [] }
  let norm (u, v) = if u <= v then (u, v) else (v, u)
  let is_alive m v = List.mem v m.alive

  let activate m v = m.alive <- v :: m.alive

  let deactivate m v =
    m.alive <- List.filter (fun x -> x <> v) m.alive;
    m.edges <- List.filter (fun (a, b) -> a <> v && b <> v) m.edges

  let add_edge m u v = m.edges <- norm (u, v) :: m.edges

  let remove_edge m u v =
    let target = norm (u, v) in
    let rec drop = function
      | [] -> (false, [])
      | e :: rest ->
          if e = target then (true, rest)
          else begin
            let hit, rest' = drop rest in
            (hit, e :: rest')
          end
    in
    let hit, edges = drop m.edges in
    m.edges <- edges;
    hit

  let degree m v =
    List.fold_left
      (fun acc (a, b) ->
        acc + (if a = v then 1 else 0) + (if b = v then 1 else 0))
      0 m.edges

  let edge_count m = List.length m.edges
  let node_count m = List.length m.alive
end

type op =
  | Activate
  | Deactivate of int
  | Add_edge of int * int
  | Remove_edge of int * int

let op_gen capacity =
  QCheck.Gen.(
    frequency
      [
        (2, return Activate);
        (1, map (fun v -> Deactivate (v mod capacity)) (int_bound (capacity - 1)));
        ( 4,
          map2
            (fun u v -> Add_edge (u mod capacity, v mod capacity))
            (int_bound (capacity - 1))
            (int_bound (capacity - 1)) );
        ( 2,
          map2
            (fun u v -> Remove_edge (u mod capacity, v mod capacity))
            (int_bound (capacity - 1))
            (int_bound (capacity - 1)) );
      ])

let show_op = function
  | Activate -> "activate"
  | Deactivate v -> Printf.sprintf "deactivate %d" v
  | Add_edge (u, v) -> Printf.sprintf "add %d-%d" u v
  | Remove_edge (u, v) -> Printf.sprintf "remove %d-%d" u v

let capacity = 12

let apply_both o m op =
  match op with
  | Activate ->
      if Overlay.node_count o < capacity then begin
        let v = Overlay.activate o in
        Model.activate m v
      end
  | Deactivate v ->
      if Overlay.is_alive o v then begin
        Overlay.deactivate o v;
        Model.deactivate m v
      end
  | Add_edge (u, v) ->
      if Overlay.is_alive o u && Overlay.is_alive o v then begin
        Overlay.add_edge o u v;
        Model.add_edge m u v
      end
  | Remove_edge (u, v) ->
      if Overlay.is_alive o u && Overlay.is_alive o v then begin
        let real = Overlay.remove_edge o u v in
        let modeled = Model.remove_edge m u v in
        if real <> modeled then
          failwith
            (Printf.sprintf "remove_edge disagrees on %d-%d: %b vs %b" u v real
               modeled)
      end

let agrees o m =
  Overlay.node_count o = Model.node_count m
  && Overlay.edge_count o = Model.edge_count m
  && List.for_all
       (fun v ->
         Overlay.is_alive o v = Model.is_alive m v
         && Overlay.degree o v = Model.degree m v)
       (List.init capacity (fun i -> i))

let prop_overlay_matches_model =
  QCheck.Test.make ~count:300 ~name:"overlay agrees with reference model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 60) (op_gen capacity)))
    (fun ops ->
      let o = Overlay.create ~capacity in
      let m = Model.create () in
      List.iter (apply_both o m) ops;
      agrees o m && Overlay.invariant o)

(* ------------------------------------------------------------------ *)
(* Engine soundness: informed nodes are exactly the BFS-reachable set
   when push runs long enough, and never more than reachable. *)
(* ------------------------------------------------------------------ *)

let random_sparse_graph seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 40 in
  let edges =
    List.init (Rng.int rng (2 * n)) (fun _ -> (Rng.int rng n, Rng.int rng n))
  in
  Graph.of_edges ~n edges

let prop_informed_subset_of_reachable =
  QCheck.Test.make ~count:150 ~name:"informed set is within BFS reach"
    QCheck.small_int
    (fun seed ->
      let g = random_sparse_graph seed in
      let rng = Rng.create (seed + 999) in
      let res =
        Engine.run ~rng
          ~topology:(Topology.of_graph g)
          ~protocol:(Baselines.push ~horizon:5 ())
          ~sources:[ 0 ] ()
      in
      let dist = Traversal.bfs g 0 in
      let sound = ref true in
      Rumor_test_support.Bitset.iter_set res.Engine.knows (fun v ->
          if dist.(v) < 0 then sound := false);
      !sound)

let prop_push_pull_covers_component =
  QCheck.Test.make ~count:80 ~name:"push&pull eventually covers the component"
    QCheck.small_int
    (fun seed ->
      let g = random_sparse_graph seed in
      let n = Graph.n g in
      let rng = Rng.create (seed + 7777) in
      let res =
        Engine.run ~rng
          ~topology:(Topology.of_graph g)
          ~protocol:(Baselines.push_pull ~horizon:(30 * (n + 1)) ())
          ~sources:[ 0 ] ()
      in
      let dist = Traversal.bfs g 0 in
      let complete = ref true in
      Array.iteri
        (fun v d ->
          (* Reachable nodes with an edge can be reached by push&pull;
             isolated source (degree 0) trivially covers itself. *)
          if d >= 0 && not (Rumor_test_support.Bitset.get res.Engine.knows v) then
            complete := false)
        dist;
      !complete)

(* ------------------------------------------------------------------ *)
(* Selector totality across strategies.                                *)
(* ------------------------------------------------------------------ *)

let selector_specs =
  [
    Selector.Uniform { fanout = 1 };
    Selector.Uniform { fanout = 4 };
    Selector.Quasirandom { fanout = 1 };
    Selector.Quasirandom { fanout = 3 };
    Selector.Avoid_recent { fanout = 1; window = 3 };
    Selector.Avoid_recent { fanout = 2; window = 2 };
    Selector.Avoid_recent { fanout = 4; window = 0 };
  ]

let prop_selectors_total =
  QCheck.Test.make ~count:200 ~name:"every selector yields valid distinct picks"
    QCheck.(triple small_int (int_range 0 12) (int_range 0 6))
    (fun (seed, degree, which) ->
      let spec = List.nth selector_specs (which mod List.length selector_specs) in
      let sel = Selector.make spec ~capacity:4 in
      let rng = Rng.create seed in
      let out = Array.make 8 (-1) in
      let ok = ref true in
      for _ = 1 to 10 do
        let k = Selector.select sel ~rng ~node:(seed mod 4) ~degree ~out in
        if k <> min (Selector.fanout spec) degree then ok := false;
        let seen = Hashtbl.create 8 in
        for i = 0 to k - 1 do
          if out.(i) < 0 || out.(i) >= degree then ok := false;
          if Hashtbl.mem seen out.(i) then ok := false;
          Hashtbl.add seen out.(i) ()
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Determinism across the public surface.                              *)
(* ------------------------------------------------------------------ *)

let prop_everything_deterministic =
  QCheck.Test.make ~count:25 ~name:"graph+broadcast pipeline is a pure function of the seed"
    QCheck.small_int
    (fun seed ->
      let go () =
        let rng = Rng.create seed in
        let n = 64 + (seed mod 64) in
        let n = if n mod 2 = 1 then n + 1 else n in
        let g = Regular.sample ~rng ~n ~d:4 Regular.Pairing in
        let res =
          Run.once ~rng ~graph:g
            ~protocol:(Baselines.push_pull ~horizon:40 ())
            ~source:0 ()
        in
        (Graph.to_edges g, Engine.transmissions res, res.Engine.informed)
      in
      go () = go ())

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_overlay_matches_model;
      prop_informed_subset_of_reachable;
      prop_push_pull_covers_component;
      prop_selectors_total;
      prop_everything_deterministic;
    ]

let () = Alcotest.run "properties-deep" [ ("properties", qcheck_cases) ]
