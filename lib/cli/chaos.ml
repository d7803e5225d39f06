module Rng = Rumor_rng.Rng
module Engine = Rumor_sim.Engine
module Invariant = Rumor_sim.Invariant
module Trace = Rumor_sim.Trace

(* --- trajectory digests ------------------------------------------- *)

(* splitmix64 finalizer folded over every observable of a run: any
   divergence anywhere in the trajectory (per-round counters, final
   census, crashed ids, repair epochs) changes the digest. *)
let mix h x =
  let z = Int64.add (Int64.logxor h x) 0x9e3779b97f4a7c15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mixi h x = mix h (Int64.of_int x)

let digest_of_result (r : Engine.result) =
  let h = ref 0L in
  h := mixi !h r.Engine.rounds;
  h := mixi !h r.Engine.population;
  h := mixi !h r.Engine.informed;
  h := mixi !h r.Engine.push_tx;
  h := mixi !h r.Engine.pull_tx;
  h := mixi !h r.Engine.channels;
  h :=
    mixi !h
      (match r.Engine.completion_round with Some c -> c + 1 | None -> 0);
  List.iter (fun v -> h := mixi !h v) r.Engine.down;
  List.iter
    (fun (e : Engine.epoch_stat) ->
      h := mixi !h e.Engine.epoch_rounds;
      h := mixi !h e.Engine.epoch_informed;
      h := mixi !h (e.Engine.repair_push_tx + e.Engine.repair_pull_tx))
    r.Engine.repair;
  (match r.Engine.trace with
  | Some t ->
      for i = 0 to Trace.length t - 1 do
        let row = Trace.get t i in
        h := mixi !h row.Trace.round;
        h := mixi !h row.Trace.informed;
        h := mixi !h row.Trace.newly;
        h := mixi !h row.Trace.push_tx;
        h := mixi !h row.Trace.pull_tx;
        h := mixi !h row.Trace.channels
      done
  | None -> ());
  Printf.sprintf "%016Lx" !h

let null_digest = "0000000000000000"

(* --- one deterministic run ---------------------------------------- *)

type outcome = {
  scenario : Scenario.t;
  digest : string;
  violations : Invariant.violation list;
  violation_count : int;
  checked : int;  (* round boundaries the monitor inspected *)
  error : string option;  (* uncaught exception, if the run crashed *)
  rounds : int;
  coverage : float;
  completed : bool;
}

let failed o = o.violation_count > 0 || o.error <> None

let run_one ?(check = true) (s : Scenario.t) =
  let monitor = if check then Some (Invariant.create ()) else None in
  let finish digest error rounds coverage completed =
    let violations, violation_count, checked =
      match monitor with
      | Some m ->
          (Invariant.violations m, Invariant.count m, Invariant.rounds_checked m)
      | None -> ([], 0, 0)
    in
    {
      scenario = s;
      digest;
      violations;
      violation_count;
      checked;
      error;
      rounds;
      coverage;
      completed;
    }
  in
  match
    Scenario.run_rep ~collect_trace:true ?monitor s (Rng.create s.Scenario.seed)
  with
  | r ->
      finish (digest_of_result r) None r.Engine.rounds (Engine.coverage r)
        (Engine.success r)
  | exception e -> finish null_digest (Some (Printexc.to_string e)) 0 0. false

(* --- random config sampling --------------------------------------- *)

let sample rng =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let n = pick [| 96; 128; 192; 256; 384; 512 |] in
  let d = pick [| 4; 6; 8 |] in
  let topology =
    pick
      [|
        "regular"; "regular"; "regular"; "hypercube"; "complete";
        "implicit-regular"; "implicit-regular"; "implicit-hypercube";
        "implicit-chords";
      |]
  in
  let protocol =
    pick [| "bef"; "bef"; "bef-seq"; "push"; "pull"; "push-pull"; "quasirandom" |]
  in
  let alpha = pick [| 1.0; 2.0 |] in
  let fanout = pick [| 2; 4 |] in
  let loss = pick [| 0.; 0.; 0.05; 0.2 |] in
  let call_failure = pick [| 0.; 0.; 0.1 |] in
  let burst_loss = pick [| 0.; 0.; 0.15; 0.4 |] in
  let burst_len = pick [| 2.; 4. |] in
  let crash_rate = pick [| 0.; 0.; 0.005; 0.02 |] in
  let recover_rate = if crash_rate > 0. then pick [| 0.; 0.25 |] else 0. in
  let crash_adversary =
    pick [| "none"; "none"; "random"; "degree"; "frontier" |]
  in
  let crash_count =
    if crash_adversary = "none" then 0 else max 1 (n / pick [| 8; 16 |])
  in
  let crash_round = 2 + Rng.int rng 5 in
  let strike_every =
    if crash_adversary = "none" then 0 else pick [| 0; 0; 2; 5 |]
  in
  let partition_round = pick [| 0; 0; 0; 2; 3; 4 |] in
  let heal_round =
    if partition_round > 0 then partition_round + 2 + Rng.int rng 6 else 0
  in
  let partition_fraction = pick [| 0.25; 0.5 |] in
  (* Churn rewires a materialised overlay; implicit views have no
     overlay to rewire, and Scenario.parse rejects the combination.
     The draws still happen so the stream position is
     topology-independent. *)
  let implicit = Scenario.is_implicit topology in
  let join_prob = pick [| 0.; 0.; 0.05; 0.15 |] in
  let join_prob = if implicit then 0. else join_prob in
  let leave_prob = pick [| 0.; 0.; 0.05; 0.15 |] in
  let leave_prob = if implicit then 0. else leave_prob in
  let n_error = pick [| 1.; 1.; 0.5; 4. |] in
  let max_epochs = pick [| 0; 0; 0; 4 |] in
  {
    Scenario.default with
    Scenario.seed = 1 + Rng.int rng 999_999;
    n;
    d;
    topology;
    protocol;
    alpha;
    fanout;
    loss;
    call_failure;
    burst_loss;
    burst_len;
    crash_rate;
    recover_rate;
    crash_adversary;
    crash_count;
    crash_round;
    strike_every;
    partition_round;
    heal_round;
    partition_fraction;
    join_prob;
    leave_prob;
    n_error;
    max_epochs;
    reps = 1;
    domains = 1;
  }

(* --- greedy shrinking --------------------------------------------- *)

let shrink_steps (s : Scenario.t) =
  let open Scenario in
  List.filter
    (fun c -> c <> s)
    [
      { s with loss = 0. };
      { s with call_failure = 0. };
      { s with burst_loss = 0. };
      { s with crash_rate = 0.; recover_rate = 0. };
      { s with crash_adversary = "none"; crash_count = 0; strike_every = 0 };
      { s with strike_every = 0 };
      { s with partition_round = 0; heal_round = 0 };
      { s with join_prob = 0.; leave_prob = 0.; churn_rate = -1. };
      { s with max_epochs = 0 };
      { s with n_error = 1. };
      { s with n = max 64 (s.n / 2) };
    ]

let shrink ?(budget = 40) ~fails s0 =
  let runs = ref 0 in
  let cur = ref s0 in
  let progress = ref true in
  while !progress && !runs < budget do
    progress := false;
    (* First still-failing simplification wins; restart from it. *)
    let rec try_steps = function
      | [] -> ()
      | c :: rest ->
          if !runs < budget then begin
            incr runs;
            if fails c then begin
              cur := c;
              progress := true
            end
            else try_steps rest
          end
    in
    try_steps (shrink_steps !cur)
  done;
  !cur

(* --- repro artifacts ---------------------------------------------- *)

let artifact ?(notes = []) ~digest (s : Scenario.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# rumor-chaos/1 repro artifact\n";
  Buffer.add_string b "# replay with: rumor replay <this file>\n";
  List.iter (fun n -> Buffer.add_string b ("# " ^ n ^ "\n")) notes;
  Buffer.add_string b (Printf.sprintf "expect_digest = %s\n" digest);
  Buffer.add_string b (Scenario.to_text s);
  Buffer.contents b

let is_hex_digest d =
  String.length d = 16
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       d

let parse_artifact text =
  let digest = ref None in
  let keep line =
    let t = String.trim line in
    if String.length t >= 13 && String.sub t 0 13 = "expect_digest" then begin
      (match String.index_opt t '=' with
      | Some i ->
          digest :=
            Some (String.trim (String.sub t (i + 1) (String.length t - i - 1)))
      | None -> ());
      false
    end
    else true
  in
  let rest = List.filter keep (String.split_on_char '\n' text) in
  match !digest with
  | None -> Error "artifact has no expect_digest line"
  | Some d when not (is_hex_digest d) ->
      Error (Printf.sprintf "malformed expect_digest %S" d)
  | Some d -> (
      match Scenario.parse (String.concat "\n" rest) with
      | Ok s -> Ok (s, d)
      | Error e -> Error e)

let parse_artifact_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          parse_artifact (really_input_string ic len))
