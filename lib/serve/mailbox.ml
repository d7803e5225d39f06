(* Bounded MPMC admission queue. The bound is the backpressure contract:
   [try_put] refuses instead of blocking, so the admission path can turn
   a full queue into an explicit rejection with a retry hint rather than
   an unbounded pile-up. Failover and retry re-entries use [force_put] —
   they are already-admitted work, so bouncing them would lose sessions.
   A consumer blocked in [take] wakes only for an element or [close]. *)

type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable high_water : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity < 1";
  {
    capacity;
    q = Queue.create ();
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    high_water = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t = with_lock t (fun () -> Queue.length t.q)
let high_water t = with_lock t (fun () -> t.high_water)
let is_closed t = with_lock t (fun () -> t.closed)

let note_depth t =
  let d = Queue.length t.q in
  if d > t.high_water then t.high_water <- d

let try_put t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.q >= t.capacity then false
      else begin
        Queue.push x t.q;
        note_depth t;
        Condition.signal t.nonempty;
        true
      end)

exception Closed

let force_put t x =
  with_lock t (fun () ->
      if t.closed then raise Closed;
      Queue.push x t.q;
      note_depth t;
      Condition.signal t.nonempty)

let take t =
  with_lock t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
      in
      wait ())

let take_opt t =
  with_lock t (fun () ->
      if Queue.is_empty t.q then None else Some (Queue.pop t.q))

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
