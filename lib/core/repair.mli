(** Self-healing repair epochs: pull-timeout with randomized backoff.

    The main algorithm ({!Algorithm}) is fast but fragile at the tail:
    a node that joins mid-broadcast, recovers from a crash after the
    wave passes, or loses every delivery to a bad burst stays
    uninformed forever once the informed nodes go quiescent. This
    module supplies the cheap steady-state layer that closes the gap —
    Demers-style anti-entropy in the address-oblivious spirit of
    Avin–Elsässer: after the main schedule, bounded {e repair epochs}
    run in which

    - uninformed nodes that have sat through [timeout] silent rounds
      open a single pull channel to a uniformly random neighbour, and
      on failure retry after a randomized exponentially growing gap
      (jitter drawn from [Rumor_rng], capped at [backoff_cap]);
    - informed nodes initiate nothing but answer pulls, aging out after
      a [quiescence] budget of rounds.

    Each epoch costs [O(u)] pull attempts for [u] uninformed nodes plus
    their answers — [O(n)] transmissions per epoch in the worst case —
    and epochs repeat until every live node is covered or [max_epochs]
    is exhausted (see {!Rumor_sim.Engine.run_epochs}). *)

type config = {
  timeout : int;  (** silent rounds an uninformed node waits before pulling *)
  backoff_base : int;  (** initial backoff window, in rounds (>= 1) *)
  backoff_cap : int;  (** backoff window ceiling (>= [backoff_base]) *)
  quiescence : int;  (** rounds an informed node keeps answering pulls *)
  epoch_rounds : int;  (** horizon of one repair epoch *)
  max_epochs : int;  (** epoch budget for a healing run *)
}

type backoff = {
  base : int;  (** initial window, in scheduling units (>= 1) *)
  cap : int;  (** window ceiling (>= [base]) *)
}
(** A randomized-exponential-backoff policy, shared between the repair
    epochs below (units are rounds) and the [Rumor_serve] session
    retries (units are milliseconds): attempt [k] waits a uniformly
    random gap in [\[1, w_k\]] where the window [w_k = min cap (base *
    2^k)] doubles until it saturates at [cap]. *)

val backoff : ?base:int -> ?cap:int -> unit -> backoff
(** Validated policy ([base] defaults to 1, [cap] to 8).
    @raise Invalid_argument if [base < 1] or [cap < base]. *)

val backoff_window : backoff -> attempt:int -> int
(** [backoff_window b ~attempt] is the window [w_attempt] (attempts are
    0-based): [min cap (base * 2^min(attempt, 16))].
    @raise Invalid_argument if [attempt < 0]. *)

val backoff_gap : backoff -> rng:Rumor_rng.Rng.t -> attempt:int -> int
(** [backoff_gap b ~rng ~attempt] draws the randomized gap before the
    next try: [1 + uniform(0, backoff_window b ~attempt - 1)], so it
    always lies in [\[1, backoff_window b ~attempt\]].
    @raise Invalid_argument if [attempt < 0]. *)

val backoff_of_config : config -> backoff
(** The policy embedded in a repair {!config}
    ([{base = backoff_base; cap = backoff_cap}]). *)

val config :
  ?timeout:int ->
  ?backoff_base:int ->
  ?backoff_cap:int ->
  ?quiescence:int ->
  ?epoch_rounds:int ->
  ?max_epochs:int ->
  n:int ->
  unit ->
  config
(** [config ~n ()] builds a validated configuration with network-size
    aware defaults: [timeout = 2], [backoff_base = 1], [backoff_cap =
    8], [epoch_rounds = max 8 (2 ceil_log2 n)], [quiescence =
    epoch_rounds], [max_epochs = 8].
    @raise Invalid_argument on non-positive or inconsistent values. *)

val strategy :
  config ->
  rng:Rumor_rng.Rng.t ->
  capacity:int ->
  epoch:int ->
  knows:Rumor_sim.Bitset.t ->
  unit Rumor_sim.Engine.epoch_plan
(** Epoch-plan builder for {!Rumor_sim.Engine.run_epochs}: partially
    apply [strategy cfg ~rng ~capacity] to obtain the [repair]
    callback. Per epoch it allocates fresh pull schedules — node [v]
    uninformed at the epoch's start first pulls at round [timeout + 1],
    then after gaps [1 + uniform(0, w)] where the window [w] doubles
    from [backoff_base] up to [backoff_cap]; nodes that lose the rumor
    mid-epoch (recovery amnesia) restart their timeout from that
    round. *)

val self_heal :
  ?fault:Rumor_sim.Fault.t ->
  ?collect_trace:bool ->
  ?reset:(unit -> int list) ->
  ?on_round_end:(int -> unit) ->
  ?monitor:Rumor_sim.Invariant.t ->
  ?packed:bool ->
  config:config ->
  rng:Rumor_rng.Rng.t ->
  topology:Rumor_sim.Topology.t ->
  protocol:'st Rumor_sim.Protocol.t ->
  sources:int list ->
  unit ->
  Rumor_sim.Engine.result
(** [self_heal ~config ~rng ~topology ~protocol ~sources ()] runs the
    main [protocol] once, then up to [config.max_epochs] repair epochs
    until every live node is informed
    ({!Rumor_sim.Engine.run_epochs}). Recovery amnesia is always on
    ([~forget_on_recover:true]): self-healing is exactly the regime in
    which stale post-crash state should not be trusted. The result's
    [repair] field carries the per-epoch accounting. *)
