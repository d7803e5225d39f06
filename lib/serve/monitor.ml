(* Service-level invariant monitor — the serving analogue of
   [Rumor_sim.Invariant]. Counters are atomics because terminal
   transitions happen on worker domains while the wire thread reads
   stats; violations are recorded under a small mutex and capped, like
   the simulation monitor, so a broken invariant cannot itself exhaust
   memory. *)

module Json = Rumor_obs.Json

type counter =
  [ `Submitted  (* submit requests seen (accepted + rejected) *)
  | `Accepted
  | `Rejected
  | `Completed
  | `Failed
  | `Shed
  | `Cancelled
  | `Retries
  | `Failovers
  | `Restarts  (* worker domains respawned after crash/wedge *)
  | `Deposed  (* wedged workers deposed by the watchdog *)
  | `Degraded  (* sessions downgraded by a shedding tier *) ]

let counter_name = function
  | `Submitted -> "submitted"
  | `Accepted -> "accepted"
  | `Rejected -> "rejected"
  | `Completed -> "completed"
  | `Failed -> "failed"
  | `Shed -> "shed"
  | `Cancelled -> "cancelled"
  | `Retries -> "retries"
  | `Failovers -> "failovers"
  | `Restarts -> "restarts"
  | `Deposed -> "deposed"
  | `Degraded -> "degraded"

let all_counters : counter list =
  [
    `Submitted; `Accepted; `Rejected; `Completed; `Failed; `Shed; `Cancelled;
    `Retries; `Failovers; `Restarts; `Deposed; `Degraded;
  ]

type violation = { check : string; detail : string }

type t = {
  counters : (string * int Atomic.t) list;
  queue_bound : int;
  restart_cap : int;
  limit : int;
  mutable violations : violation list;  (* newest first *)
  mutable violation_count : int;
  mutex : Mutex.t;
}

let create ?(limit = 64) ~queue_bound ~restart_cap () =
  if limit < 1 then invalid_arg "Monitor.create: limit < 1";
  {
    counters =
      List.map (fun c -> (counter_name c, Atomic.make 0)) all_counters;
    queue_bound;
    restart_cap;
    limit;
    violations = [];
    violation_count = 0;
    mutex = Mutex.create ();
  }

let cell t c = List.assoc (counter_name c) t.counters
let incr t c = Atomic.incr (cell t c)
let count t c = Atomic.get (cell t c)

let record t ~check ~detail =
  Mutex.lock t.mutex;
  t.violation_count <- t.violation_count + 1;
  if List.length t.violations < t.limit then
    t.violations <- { check; detail } :: t.violations;
  Mutex.unlock t.mutex

let violations t =
  Mutex.lock t.mutex;
  let v = List.rev t.violations in
  Mutex.unlock t.mutex;
  v

let ok t = t.violation_count = 0

(* --- the service invariants --- *)

let observe_queue t depth =
  (* The admission bound applies to try_put only; failover/retry
     re-entry may push the queue slightly past it, bounded by the
     number of in-flight sessions (<= bound + workers). Anything beyond
     that means admission control is broken. *)
  if depth > t.queue_bound * 2 + 64 then
    record t ~check:"queue-bound"
      ~detail:
        (Printf.sprintf "queue depth %d exceeds bound %d" depth t.queue_bound)

let note_restart t =
  incr t `Restarts;
  if count t `Restarts > t.restart_cap then
    record t ~check:"restart-intensity"
      ~detail:
        (Printf.sprintf "%d worker restarts exceed cap %d" (count t `Restarts)
           t.restart_cap)

let note_terminal t ~already_terminal outcome =
  if already_terminal then
    record t ~check:"double-terminal"
      ~detail:"session reached a second terminal state"
  else
    incr t
      (match outcome with
      | Session.Completed -> `Completed
      | Session.Failed _ -> `Failed
      | Session.Shed -> `Shed
      | Session.Cancelled -> `Cancelled)

let terminal_total t =
  count t `Completed + count t `Failed + count t `Shed + count t `Cancelled

(* Conservation: every accepted session is queued, running, backing
   off, or terminal — none lost, none double-counted. Checked at quiet
   points (drain, test teardown) where in-flight counts are stable. *)
let reconcile t ~in_flight =
  let accepted = count t `Accepted and terms = terminal_total t in
  if accepted <> terms + in_flight then begin
    record t ~check:"conservation"
      ~detail:
        (Printf.sprintf "accepted %d <> terminal %d + in-flight %d" accepted
           terms in_flight);
    false
  end
  else true

let to_json t =
  Json.Obj
    (List.map (fun (name, c) -> (name, Json.Int (Atomic.get c))) t.counters
    @ [
        ("violations", Json.Int t.violation_count);
        ( "violation_list",
          Json.List
            (List.map
               (fun v ->
                 Json.Obj
                   [
                     ("check", Json.String v.check);
                     ("detail", Json.String v.detail);
                   ])
               (violations t)) );
        ("ok", Json.Bool (ok t));
      ])
