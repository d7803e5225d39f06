(** Bounded multi-producer/multi-consumer admission queue.

    The service accepts a session only if the queue has room:
    {!try_put} never blocks and returns [false] on a full (or closed)
    queue, which the admission layer turns into an explicit rejection
    with a [retry_after] hint — backpressure by refusal, not by
    unbounded buffering. {!force_put} bypasses the bound for work that
    was already admitted (deadline retries, crash failovers): bouncing
    those would lose accepted sessions, so the bound check applies at
    admission only and the monitor's queue invariant allows the small
    transient excess ([capacity] + in-flight retries).

    All operations are safe across OCaml domains and threads. *)

type 'a t

exception Closed

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val length : 'a t -> int
(** Current depth (racy by nature; exact at the instant sampled). *)

val high_water : 'a t -> int
(** Deepest the queue has ever been. *)

val is_closed : 'a t -> bool

val try_put : 'a t -> 'a -> bool
(** Enqueue if the queue is open and below capacity; never blocks.
    Returns [false] (refusal) otherwise. *)

val force_put : 'a t -> 'a -> unit
(** Enqueue regardless of the bound — for retry/failover re-entry of
    already-admitted work. @raise Closed if the queue is closed. *)

val take : 'a t -> 'a option
(** Block until an element is available ([Some]) or the queue is closed
    and drained ([None]). *)

val take_opt : 'a t -> 'a option
(** Non-blocking take (returns [None] on an empty queue even if open). *)

val close : 'a t -> unit
(** Close the queue: future puts fail, blocked takers drain the
    remaining elements and then receive [None]. Idempotent. *)
