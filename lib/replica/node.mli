(** One replica process of the replicated reliability-query service.

    Hosts the simulator's {!Raft_sim.Raft_node} inside a private
    {!Dessim.Engine} whose virtual clock is slaved to the wall clock
    (virtual ms = wall ms since start), bridging it to other replicas
    over real TCP ({!Transport}) and to clients through the
    reactor {!Service.Server} with a replica-aware handler:

    - [scenario_put] is sequenced through the Raft log and acknowledged
      only after commit and apply; followers answer [not_leader] with a
      leader hint.
    - plain [scenario_get] is served from local applied state when the
      replica has heard from a leader within the staleness budget,
      refused with [not_leader] otherwise; [linearizable] gets are
      leader-only behind a {!Command.Barrier} sequenced through the
      log.
    - deterministic computes ([analyze], [fleet_ingest]) are served
      locally, with the leader replicating rendered payloads as
      {!Command.Warm} records so follower caches warm through the log.
    - [replica_status] reports role, term, hint, indices and state
      counters.

    One {e pump} thread owns the Raft and every raft-plane socket; it
    is the only thread a replica starts besides its server's. It
    sleeps in [select] on its wake pipe, the raft listener, the
    connections it accepted and the outbound links holding queued
    bytes ({!Transport.poll}), until one is ready or the engine's next
    timer or the earliest commit deadline is due. Then it accepts,
    reads and decodes inbound envelopes (payload bytes land before
    their messages) and runs a cycle: drain client submissions,
    advance the engine to wall-clock elapsed time, settle writes whose
    leader was deposed or whose commit deadline passed, append what
    changed to the {!Storage} segment (one fsync), {e then} call the
    held replies and write the queued frames — so no acknowledgement
    leaves the process ahead of the log bytes that justify it.

    A write holds no worker lane: the handler hands it to the pump
    with the server's [reply] callback, and the pump calls it on apply,
    on deposition, at the deadline, or when it exits. With a
    [state_dir], a SIGKILLed replica restarts from its segment and
    re-applies committed entries idempotently. A replica's Raft keeps
    no simulator trace. *)

type config = {
  id : int;  (** Replica id in [0..n-1]. *)
  n : int;
  base_port : int;
      (** Raft plane: replica [i] listens on [base_port + i]; chaos
          link proxies (when enabled) use
          [base_port + n + src*n + dst]. *)
  service_port : int;  (** Client-facing query service port. *)
  seed : int;
  state_dir : string option;  (** [None] disables persistence. *)
  workers : int;
  chaos : Service.Chaos.plan option;
      (** When set, every outbound inter-replica link runs through an
          in-process fault-injecting proxy with a per-link derived seed
          — a fixture for the inter-replica chaos tests. *)
  staleness_budget_seconds : float;
      (** Follower plain-read freshness bound: reads are refused when
          the last leader contact is older than this. *)
  commit_timeout_seconds : float;
      (** How long a write waits for its commit before the pump answers
          it [deadline_exceeded] (safe to retry: apply is idempotent). *)
}

val default_config :
  id:int -> n:int -> base_port:int -> service_port:int -> config
(** Seed 42, no persistence, no chaos, 2 workers, 1 s staleness
    budget, 4 s commit timeout. *)

val raft_port : config -> int -> int

type t

val start : config -> t
(** Bind the raft listener and service port, restore persisted state
    if present, spawn the pump. Raises on port conflicts, a damaged
    segment, or an out-of-range id. *)

val stop : t -> unit
(** Graceful: stop the pump, drain the service server, then close the
    raft-plane sockets, proxies, segment and wake pipe. Idempotent.
    Whenever the pump exits — here, or on a failure such as a disk
    error — it answers every write still waiting, [shutting_down] or
    [internal], while the server can still deliver the reply. *)

val set_chaos_plan : t -> Service.Chaos.plan -> unit
(** Swap the plan on every outbound link proxy (live connections are
    reset so accept-time faults like blackholes take effect) — the
    mid-append blackhole lever of the inter-replica chaos tests.
    No-op when chaos is disabled. *)

val id : t -> int
val service_port : t -> int

val is_leader : t -> bool
(** From the status snapshot the pump publishes at the end of every
    cycle. *)

val term : t -> int
val leader_hint : t -> int option
val state_counts : t -> State.counts
val status_json : t -> Obs.Json.t
