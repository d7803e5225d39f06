(** A doorbell for a thread that sleeps in [Unix.select].

    A non-blocking, close-on-exec pipe. Any thread, domain or signal
    handler may {!ring}; the one owner either puts {!fd} in its own
    [select] set (the server loop) or sleeps in {!wait} (the service
    ticker). Each ring writes one byte; a ring that finds the pipe full
    drops it, since a full pipe already wakes the owner.

    The owner must {!clear} before it reads the state the ring
    announces, and a ringer must publish that state before it rings.
    Then a ring is never lost: either the owner sees its state after
    the clear, or its byte is still in the pipe. *)

type t

val create : unit -> t

val fd : t -> Unix.file_descr
(** The read end, readable while a ring is pending. *)

val ring : t -> unit
(** Wake the owner. Safe from any thread or domain and from a signal
    handler; never blocks, never raises. *)

val clear : t -> unit
(** Empty the pipe. Owner only. *)

val wait : t -> timeout_s:float -> unit
(** Sleep until a ring or [timeout_s] seconds (negative: no timeout),
    then {!clear}. Owner only. *)

val close : t -> unit
(** Close both ends. No ring may follow. *)
