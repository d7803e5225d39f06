module Rng = Rumor_rng.Rng

let join t ~rng ~d =
  if d <= 0 || d mod 2 <> 0 then invalid_arg "Churn.join: d must be positive and even";
  if Overlay.edge_count t < d / 2 then failwith "Churn.join: too few edges to split";
  let fresh = Overlay.activate t in
  for _ = 1 to d / 2 do
    (* Draw an edge not incident to the newcomer; splitting one of the
       newcomer's own edges would change its final degree. *)
    let rec draw budget =
      if budget = 0 then failwith "Churn.join: could not sample a splittable edge";
      match Overlay.random_edge t rng with
      | None -> failwith "Churn.join: no edges"
      | Some (u, w) -> if u = fresh || w = fresh then draw (budget - 1) else (u, w)
    in
    let u, w = draw 10_000 in
    (* Load-bearing side effect: if the removal ever fails the edge
       split would corrupt the overlay's degree invariant, and `assert`
       vanishes under -noassert. *)
    if not (Overlay.remove_edge t u w) then
      failwith "Churn.join: sampled edge vanished before removal";
    Overlay.add_edge t u fresh;
    Overlay.add_edge t fresh w
  done;
  fresh

let leave t ~rng ~node =
  if not (Overlay.is_alive t node) then invalid_arg "Churn.leave: not alive";
  (* Collect the half-edges the departing node leaves behind; a stub per
     incident edge copy, excluding self-loops (those vanish whole). *)
  let stubs =
    List.filter (fun w -> w <> node) (Overlay.neighbors t node)
  in
  Overlay.deactivate t node;
  let arr = Array.of_list stubs in
  Rng.shuffle rng arr;
  let i = ref 0 in
  while !i + 1 < Array.length arr do
    Overlay.add_edge t arr.(!i) arr.(!i + 1);
    i := !i + 2
  done

let leave_random t ~rng =
  let v = Overlay.random_node t rng in
  leave t ~rng ~node:v;
  v

type event = { joined : int option; left : int option }

let session t ~rng ~d ~join_prob ~leave_prob () =
  let joined =
    (* The join is skipped — never raised through — when the overlay is
       full or too sparse to split d/2 edges, mirroring the leave guard
       below: one saturated tick must not kill a long experiment. *)
    if
      Rng.bernoulli rng join_prob
      && Overlay.node_count t < Overlay.capacity t
      && Overlay.edge_count t >= d / 2
    then Some (join t ~rng ~d)
    else None
  in
  let left =
    if Rng.bernoulli rng leave_prob && Overlay.node_count t > d + 2 then
      Some (leave_random t ~rng)
    else None
  in
  { joined; left }
