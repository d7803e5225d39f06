(** Wall-clock / CPU timers and GC deltas.

    One {!span} captures everything a bench record needs about the cost
    of a measured region: elapsed wall time ([Unix.gettimeofday]),
    elapsed process CPU time ([Sys.time]) and the [Gc.quick_stat]
    deltas across the region (words allocated, minor/major collections,
    heap growth). *)

type span = {
  wall_s : float;  (** elapsed wall-clock seconds *)
  cpu_s : float;  (** elapsed process CPU seconds *)
  minor_words : float;  (** words allocated in the minor heap *)
  major_words : float;  (** words allocated in (or promoted to) the major heap *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;  (** high-water heap mark at the end of the span *)
  heap_words : int;  (** major heap size at the end of the span, words *)
  peak_rss_kb : int;
      (** process peak resident set (VmHWM), kB; 0 where unavailable.
          Unlike the GC fields this sees Bytes-backed tables and the
          runtime itself, so bytes-per-node claims at the 10^7–10^8
          scale are checkable against it. *)
}

val timed : (unit -> 'a) -> 'a * span
(** Run a thunk and measure it. Exceptions propagate unmeasured. *)

val peak_rss_kb : unit -> int
(** Current [VmHWM] reading from [/proc/self/status], kB; 0 where the
    file or field is missing (non-Linux). *)

val span_to_json : span -> Json.t
(** Flat object: [wall_s], [cpu_s], [peak_rss_kb] and a nested [gc]
    object. *)
