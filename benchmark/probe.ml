(* Tracing from outside the kernel. [Kernel.run] takes its topology and
   protocol as records of closures, so wrapping those closures counts
   every call into the topology and protocol layers without touching
   [lib/]. The clock is read only at phase transitions, which are
   inferred from the call order of one round:

   - deliver starts at a [degree v] call once the round has moved past
     delivery, or whose [v] is not above the previous one (the
     initiator loop walks ids in ascending order);
   - apply starts at the first [p_receive];
   - feedback starts at the first [p_feedback];
   - tail starts at the first [p_quiescent], or at the first [alive]
     call after apply or feedback began (the quiescence scan and the
     next round's fault tick). Tail also absorbs the run's set-up
     before round 1 and its wind-down after the last round.

   A phase a round skips is simply not entered. *)

module Topology = Rumor_sim.Topology
module Protocol = Rumor_sim.Protocol

let deliver = 0
let apply = 1
let feedback = 2
let tail = 3
let phase_names = [| "deliver"; "apply"; "feedback"; "tail" |]

type t = {
  mutable alive : int;
  mutable degree : int;
  mutable neighbor : int;
  mutable decide : int;
  mutable receive : int;
  mutable feedback : int;
  mutable quiescent : int;
  mutable phase : int;
  mutable last_v : int;
  mutable mark : int;
  ns : int array;  (** nanoseconds per phase, summed over calls *)
}

let create () =
  {
    alive = 0;
    degree = 0;
    neighbor = 0;
    decide = 0;
    receive = 0;
    feedback = 0;
    quiescent = 0;
    phase = tail;
    last_v = max_int;
    mark = 0;
    ns = Array.make 4 0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enter p phase =
  let t = now_ns () in
  p.ns.(p.phase) <- p.ns.(p.phase) + (t - p.mark);
  p.mark <- t;
  p.phase <- phase

(* Bracket one traced call: everything before the first round counts as
   tail, and the phase open when the call returns is closed. *)
let measure p f =
  p.phase <- tail;
  p.last_v <- max_int;
  p.mark <- now_ns ();
  let r = f () in
  enter p tail;
  r

let topology p (t : Topology.t) =
  {
    t with
    Topology.degree =
      (fun v ->
        p.degree <- p.degree + 1;
        if p.phase <> deliver || v <= p.last_v then enter p deliver;
        p.last_v <- v;
        t.Topology.degree v);
    neighbor =
      (fun v i ->
        p.neighbor <- p.neighbor + 1;
        t.Topology.neighbor v i);
    alive =
      (fun v ->
        p.alive <- p.alive + 1;
        if p.phase = apply || p.phase = feedback then enter p tail;
        t.Topology.alive v);
  }

let on_decide p = p.decide <- p.decide + 1

let on_receive p =
  p.receive <- p.receive + 1;
  if p.phase < apply then enter p apply

let on_feedback p =
  p.feedback <- p.feedback + 1;
  if p.phase < feedback then enter p feedback

let on_quiescent p =
  p.quiescent <- p.quiescent + 1;
  if p.phase < tail then enter p tail

(* The boxed fields and the packed ops are wrapped together: a record
   update that skipped [packed] would leave the kernel running the
   unwrapped ops (see the warning on [Protocol.t]). *)
let protocol p (pr : 'st Protocol.t) : 'st Protocol.t =
  let packed =
    Option.map
      (fun (pk : 'st Protocol.packed) ->
        let o = pk.Protocol.ops in
        {
          pk with
          Protocol.ops =
            {
              o with
              Protocol.p_decide =
                (fun c ~round ->
                  on_decide p;
                  o.Protocol.p_decide c ~round);
              p_receive =
                (fun c ~round ->
                  on_receive p;
                  o.Protocol.p_receive c ~round);
              p_feedback =
                (fun c ~round ->
                  on_feedback p;
                  o.Protocol.p_feedback c ~round);
              p_quiescent =
                (fun c ~round ->
                  on_quiescent p;
                  o.Protocol.p_quiescent c ~round);
            };
        })
      pr.Protocol.packed
  in
  {
    pr with
    Protocol.decide =
      (fun st ~round ->
        on_decide p;
        pr.Protocol.decide st ~round);
    receive =
      (fun st ~round ->
        on_receive p;
        pr.Protocol.receive st ~round);
    feedback =
      (fun st ~round ->
        on_feedback p;
        pr.Protocol.feedback st ~round);
    quiescent =
      (fun st ~round ->
        on_quiescent p;
        pr.Protocol.quiescent st ~round);
    packed;
  }
