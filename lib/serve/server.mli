(** The [rumor serve] frontend: NDJSON over stdio, a Unix socket, or a
    caller-supplied descriptor.

    Single-threaded I/O on top of one {!Service}: worker domains never
    touch a client descriptor. A session's terminal notification is
    queued and rings a {!Wake} pipe in the loop's select set, so the
    loop writes it out as soon as the session ends; a slow or dead
    client can delay its own events but can never wedge a worker (and
    thus can never trip the supervisor's watchdog). The loop has no
    poll interval: an idle server sleeps until input, a connection, a
    terminal session or a shutdown signal wakes it. The [stats] reply
    counts these wake-ups.

    Drain semantics: SIGTERM, SIGINT, a wire [shutdown] op, or EOF on
    the primary connection (stdin, or the [Fd] descriptor) close
    admission (further submits are rejected with ["draining"]);
    in-flight sessions finish and deliver their events (after EOF the
    primary connection is still written to, and gets the final stats
    line); then the service winds down. [drain_timeout_s] is the
    hard-kill bound — past it, stragglers are cancelled and
    force-failed so the no-session-lost invariant still holds. *)

type transport =
  | Stdio
  | Unix_socket of string
  | Fd of Unix.file_descr
      (** serve one pre-connected descriptor (e.g. a socketpair end) —
          how a host process embeds the service in-process; EOF on it
          drains, like stdin *)

val run :
  ?config:Service.config ->
  ?drain_timeout_s:float ->
  ?quiet:bool ->
  ?signals:bool ->
  transport ->
  int
(** Serve until drained. Returns the process exit code: [0] iff the
    drain was clean — in-flight work settled inside the timeout, every
    worker domain was joined, and the monitor recorded no invariant
    violation. Installs SIGTERM/SIGINT/SIGPIPE handlers for the
    duration and restores them on exit; pass [~signals:false] when
    embedding the server in a process that owns its own handlers (the
    in-process load driver) — the host's SIGTERM/SIGINT behaviour is
    then left untouched and shutdown comes from EOF or a wire op. A
    pre-existing socket path is replaced and unlinked on shutdown. *)
