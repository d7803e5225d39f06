module Overlay = Rumor_p2p.Overlay
module Rng = Rumor_rng.Rng
include Rumor_p2p.Churn

let join_local t ~rng ~d ~contact ~walk_length =
  if d <= 0 || d mod 2 <> 0 then
    invalid_arg "Churn.join_local: d must be positive and even";
  if walk_length < 1 then invalid_arg "Churn.join_local: walk_length < 1";
  if not (Overlay.is_alive t contact) then
    invalid_arg "Churn.join_local: dead contact";
  let fresh = Overlay.activate t in
  let walk_step v =
    let deg = Overlay.degree t v in
    if deg = 0 then None else Some (Overlay.neighbor t v (Rng.int rng deg))
  in
  for _ = 1 to d / 2 do
    (* Walk walk_length - 1 steps, then record the final traversed edge. *)
    let rec sample budget =
      if budget = 0 then failwith "Churn.join_local: no splittable edge found";
      let u = ref contact in
      let ok = ref true in
      for _ = 1 to walk_length - 1 do
        match walk_step !u with
        | Some w -> u := w
        | None -> ok := false
      done;
      match (!ok, walk_step !u) with
      | true, Some w
        when !u <> fresh && w <> fresh && Overlay.remove_edge t !u w ->
          (!u, w)
      | _ -> sample (budget - 1)
    in
    let u, w = sample 10_000 in
    Overlay.add_edge t u fresh;
    Overlay.add_edge t fresh w
  done;
  fresh
