module Rng = Rumor_rng.Rng

(* --- graceful interruption ---

   A single process-wide flag, set from a SIGINT/SIGTERM handler (or
   directly by tests). Replication workers poll it between repetitions:
   on interruption every domain finishes its current repetition, the
   spawner joins them all (no orphaned domains), and the completed
   subset is returned so callers can flush partial documents. *)

let interrupt_flag = Atomic.make false

let interrupted () = Atomic.get interrupt_flag
let request_interrupt () = Atomic.set interrupt_flag true

let with_interrupt_signals f =
  Atomic.set interrupt_flag false;
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> request_interrupt ())) in
  let old_int = install Sys.sigint in
  let old_term = install Sys.sigterm in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term)
    f

let replicate ~seed ~reps f =
  if reps < 1 then invalid_arg "Experiment.replicate: reps < 1";
  let base = Rng.create seed in
  let acc = ref [] in
  (try
     for i = 0 to reps - 1 do
       if interrupted () then raise Exit;
       acc := f (Rng.fork base i) :: !acc
     done
   with Exit -> ());
  List.rev !acc

(* Capped: replication workers are compute-bound, so more domains than
   cores only adds scheduling noise, and past ~8 the per-domain minor
   heaps start to crowd small machines. *)
let default_domains () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* --- shared-pool task execution ---

   The matrix runner executes a whole grid of cells under ONE domain
   pool: flattening every (task, rep) pair into a single work list
   keeps all domains busy across cell boundaries, instead of paying a
   spawn/join barrier (and idle tail) per cell. Streams are pre-forked
   per (task, rep) exactly as [replicate] forks them per rep, so each
   task's results are bit-identical to running that task alone through
   [replicate ~seed:task.seed ~reps:task.reps]. *)

type task = { seed : int; reps : int }

let run_tasks ?domains tasks f =
  let total = Array.fold_left (fun acc t -> acc + t.reps) 0 tasks in
  Array.iteri
    (fun i t ->
      if t.reps < 1 then
        invalid_arg
          (Printf.sprintf "Experiment.run_tasks: task %d has reps < 1" i))
    tasks;
  let domains =
    match domains with
    | Some d when d >= 1 -> min d (max 1 total)
    | Some _ -> invalid_arg "Experiment.run_tasks: domains < 1"
    | None -> min (default_domains ()) (max 1 total)
  in
  let streams =
    Array.map
      (fun t ->
        let base = Rng.create t.seed in
        Array.init t.reps (fun r -> Rng.fork base r))
      tasks
  in
  let out = Array.map (fun t -> Array.make t.reps None) tasks in
  (* Work items in (task-major, rep-minor) order: under interruption
     the completed set is a prefix-biased subset, so early cells finish
     first and partial documents stay coherent. *)
  let work = Array.make total (0, 0) in
  let pos = ref 0 in
  Array.iteri
    (fun t task ->
      for r = 0 to task.reps - 1 do
        work.(!pos) <- (t, r);
        incr pos
      done)
    tasks;
  if domains = 1 then begin
    (try
       for w = 0 to total - 1 do
         if interrupted () then raise Exit;
         let t, r = work.(w) in
         out.(t).(r) <- Some (f ~task:t ~rep:r streams.(t).(r))
       done
     with Exit -> ());
    out
  end
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let w = Atomic.fetch_and_add next 1 in
        if w >= total || interrupted () then continue := false
        else begin
          let t, r = work.(w) in
          out.(t).(r) <- Some (f ~task:t ~rep:r streams.(t).(r))
        end
      done
    in
    let spawned = List.init domains (fun _ -> Domain.spawn worker) in
    List.iter Domain.join spawned;
    out
  end

(* One task on the shared pool. Under interruption the completed
   subset comes back in repetition order. *)
let replicate_parallel ?domains ~seed ~reps f =
  if reps < 1 then invalid_arg "Experiment.replicate: reps < 1";
  (match domains with
  | Some d when d < 1 -> invalid_arg "Experiment.replicate_parallel: domains < 1"
  | _ -> ());
  let out = run_tasks ?domains [| { seed; reps } |] (fun ~task:_ ~rep:_ -> f) in
  List.filter_map Fun.id (Array.to_list out.(0))

let summarize ~seed ~reps f = Summary.of_list (replicate ~seed ~reps f)

let mean_of ~seed ~reps f = (summarize ~seed ~reps f).Summary.mean
