module Rng = Rumor_rng.Rng

type burst = { loss : float; burst_len : float }

type adversary = Random_nodes | Highest_degree | Frontier

type strike = {
  at_round : int;
  count : int;
  every : int;  (* 0 = one-shot; k > 0 re-fires every k rounds *)
  adversary : adversary;
}

type partition = { split_at : int; heal_at : int; cut_fraction : float }

type t = {
  call_failure : float;
  link_loss : float;
  push_loss : float;
  pull_loss : float;
  burst : burst option;
  crash_rate : float;
  recover_rate : float;
  strike : strike option;
  partition : partition option;
}

let none =
  {
    call_failure = 0.;
    link_loss = 0.;
    push_loss = 0.;
    pull_loss = 0.;
    burst = None;
    crash_rate = 0.;
    recover_rate = 0.;
    strike = None;
    partition = None;
  }

let check_prob where name p =
  if p < 0. || p > 1. then
    invalid_arg (where ^ ": " ^ name ^ " out of range")

let make ?(call_failure = 0.) ?(link_loss = 0.) () =
  check_prob "Fault.make" "call_failure" call_failure;
  check_prob "Fault.make" "link_loss" link_loss;
  { none with call_failure; link_loss }

(* Enter probability p = loss / ((1 - loss) * burst_len) keeps the
   chain's stationary bad-state probability at [loss]; it must itself be
   a probability, which bounds loss by burst_len / (burst_len + 1). *)
let burst ~loss ~burst_len =
  if loss < 0. || loss >= 1. then
    invalid_arg "Fault.burst: loss must be in [0, 1)";
  if burst_len < 1. then invalid_arg "Fault.burst: burst_len must be >= 1";
  if loss > burst_len /. (burst_len +. 1.) then
    invalid_arg "Fault.burst: loss too high for this burst_len";
  { loss; burst_len }

let strike ?(adversary = Random_nodes) ?(every = 0) ~at_round ~count () =
  if at_round < 1 then invalid_arg "Fault.strike: at_round must be >= 1";
  if count < 0 then invalid_arg "Fault.strike: count must be >= 0";
  if every < 0 then invalid_arg "Fault.strike: every must be >= 0";
  { at_round; count; every; adversary }

let strike_fires s ~round =
  round = s.at_round
  || (s.every > 0 && round > s.at_round
      && (round - s.at_round) mod s.every = 0)

let partition ?(fraction = 0.5) ~split_at ~heal_at () =
  if split_at < 1 then
    invalid_arg "Fault.partition: split_at must be >= 1";
  if heal_at <= split_at then
    invalid_arg "Fault.partition: heal_at must be > split_at";
  check_prob "Fault.partition" "fraction" fraction;
  { split_at; heal_at; cut_fraction = fraction }

let plan ?(call_failure = 0.) ?(link_loss = 0.) ?(push_loss = 0.)
    ?(pull_loss = 0.) ?burst ?(crash_rate = 0.) ?(recover_rate = 0.) ?strike
    ?partition () =
  check_prob "Fault.plan" "call_failure" call_failure;
  check_prob "Fault.plan" "link_loss" link_loss;
  check_prob "Fault.plan" "push_loss" push_loss;
  check_prob "Fault.plan" "pull_loss" pull_loss;
  check_prob "Fault.plan" "crash_rate" crash_rate;
  check_prob "Fault.plan" "recover_rate" recover_rate;
  {
    call_failure;
    link_loss;
    push_loss;
    pull_loss;
    burst;
    crash_rate;
    recover_rate;
    strike;
    partition;
  }

let has_node_faults t =
  t.crash_rate > 0. || t.strike <> None

let channel_ok t rng =
  t.call_failure = 0. || not (Rng.bernoulli rng t.call_failure)

let delivery_ok ?dir t rng =
  (t.link_loss = 0. || not (Rng.bernoulli rng t.link_loss))
  &&
  match dir with
  | None -> true
  | Some `Push -> t.push_loss = 0. || not (Rng.bernoulli rng t.push_loss)
  | Some `Pull -> t.pull_loss = 0. || not (Rng.bernoulli rng t.pull_loss)

(* --- stateful runtime driven by the engine's round loop --- *)

type runtime = {
  plan : t;
  capacity : int;
  bad : Bitset.t;  (* Gilbert–Elliott state per node; empty when unused *)
  down : Bitset.t;  (* crashed node ids; empty when unused *)
  ge_enter : float;  (* good -> bad transition probability *)
  ge_leave : float;  (* bad -> good transition probability *)
  side : Bitset.t;  (* partition side per node; empty when unused *)
  mutable cut_active : bool;  (* a partition window is currently open *)
}

let start plan ~capacity =
  if capacity < 0 then invalid_arg "Fault.start: capacity < 0";
  let sized used = Bitset.create (if used then capacity else 0) in
  let bad = sized (plan.burst <> None) in
  let down = sized (has_node_faults plan) in
  let ge_enter, ge_leave =
    match plan.burst with
    | Some b -> (b.loss /. ((1. -. b.loss) *. b.burst_len), 1. /. b.burst_len)
    | None -> (0., 0.)
  in
  let side = sized (plan.partition <> None) in
  { plan; capacity; bad; down; ge_enter; ge_leave; side; cut_active = false }

let active rt v = Bitset.length rt.down = 0 || not (Bitset.get rt.down v)
let bursting rt v = Bitset.length rt.bad > 0 && Bitset.get rt.bad v
let may_recover rt = rt.plan.recover_rate > 0.
let down_count rt = Bitset.cardinal rt.down

let apply_strike ?on_crash rt ~rng ~degree ~alive ~informed s =
  let eligible v =
    alive v && not (Bitset.get rt.down v)
    && match s.adversary with Frontier -> informed v | _ -> true
  in
  let cands = ref [] in
  for v = rt.capacity - 1 downto 0 do
    if eligible v then cands := v :: !cands
  done;
  let arr = Array.of_list !cands in
  let k = min s.count (Array.length arr) in
  (match s.adversary with
  | Highest_degree ->
      (* deterministic: degree descending, id ascending on ties *)
      Array.sort
        (fun a b ->
          let c = Int.compare (degree b) (degree a) in
          if c <> 0 then c else Int.compare a b)
        arr
  | Random_nodes | Frontier -> Rng.shuffle_prefix rng arr k);
  for i = 0 to k - 1 do
    Bitset.set rt.down arr.(i);
    match on_crash with Some f -> f arr.(i) | None -> ()
  done

let begin_round ?on_recover ?on_crash rt ~rng ~round ~degree ~alive ~informed =
  if Bitset.length rt.bad > 0 then
    for v = 0 to rt.capacity - 1 do
      if Bitset.get rt.bad v then begin
        if Rng.bernoulli rng rt.ge_leave then Bitset.clear rt.bad v
      end
      else if Rng.bernoulli rng rt.ge_enter then Bitset.set rt.bad v
    done;
  if Bitset.length rt.down > 0 then begin
    if rt.plan.recover_rate > 0. then
      for v = 0 to rt.capacity - 1 do
        if Bitset.get rt.down v && Rng.bernoulli rng rt.plan.recover_rate
        then begin
          Bitset.clear rt.down v;
          match on_recover with Some f -> f v | None -> ()
        end
      done;
    if rt.plan.crash_rate > 0. then
      for v = 0 to rt.capacity - 1 do
        if alive v && (not (Bitset.get rt.down v))
           && Rng.bernoulli rng rt.plan.crash_rate
        then begin
          Bitset.set rt.down v;
          match on_crash with Some f -> f v | None -> ()
        end
      done;
    match rt.plan.strike with
    | Some s when strike_fires s ~round ->
        apply_strike ?on_crash rt ~rng ~degree ~alive ~informed s
    | Some _ | None -> ()
  end;
  match rt.plan.partition with
  | Some p ->
      if round = p.split_at then begin
        (* Sample every node's side, dead or alive, so the draw count is
           a function of capacity alone (randomness-order contract). *)
        for v = 0 to rt.capacity - 1 do
          Bitset.assign rt.side v (Rng.bernoulli rng p.cut_fraction)
        done;
        rt.cut_active <- true
      end
      else if round = p.heal_at then rt.cut_active <- false
  | None -> ()

let same_side rt u v =
  (not rt.cut_active) || Bitset.get rt.side u = Bitset.get rt.side v

let transmit_ok rt rng ~dir_loss ~sender =
  (Bitset.length rt.bad = 0 || not (Bitset.get rt.bad sender))
  && (rt.plan.link_loss = 0. || not (Rng.bernoulli rng rt.plan.link_loss))
  && (dir_loss = 0. || not (Rng.bernoulli rng dir_loss))

let push_ok rt rng ~sender =
  transmit_ok rt rng ~dir_loss:rt.plan.push_loss ~sender

let pull_ok rt rng ~sender =
  transmit_ok rt rng ~dir_loss:rt.plan.pull_loss ~sender
