(** One replica process of the replicated reliability-query service.

    Hosts {!Raft_sim.Raft_node} on the wall clock: Raft's timers are
    deadlines the server loop fires, its messages go to other replicas
    over real TCP ({!Transport}), and clients reach it through the
    reactor {!Service.Server} with a replica-aware handler:

    - [scenario_put] is sequenced through the Raft log and acknowledged
      only after commit and apply; followers answer [not_leader] with a
      leader hint.
    - plain [scenario_get] is served from local applied state when the
      replica has heard from a leader within the staleness budget,
      refused with [not_leader] otherwise; [linearizable] gets are
      leader-only read-index reads ({!Raft_sim.Raft_node.read_index}):
      no log entry and no fsync, answered once a quorum has echoed a
      probe sent after the read arrived. A leader that has not yet
      committed an entry of its term sequences a {!Command.Barrier}
      instead.
    - deterministic computes ([analyze], [fleet_ingest]) are served
      locally, with the leader replicating rendered payloads as
      {!Command.Warm} records so follower caches warm through the log.
    - [replica_status] reports role, term, hint, indices and state
      counters.

    A replica starts no thread of its own. Its Raft and every
    raft-plane socket belong to its server's reactor loop, as a
    {!Service.Server.plane}: the loop adds the raft listener, the
    connections it accepted and the links holding queued bytes
    ({!Transport.fds}) to its [select], and sleeps no longer than
    Raft's next timer or the earliest commit deadline. After every
    [select] it reads the client connections — a put goes onto the
    log and a linearizable get sends its probes at once — then
    accepts, reads and decodes inbound envelopes, handing each message
    to Raft (payload bytes land before their messages), and runs a
    cycle: fire Raft's due timers, settle the writes and reads whose
    leader was deposed or whose deadline passed, append what changed
    to the {!Storage} segment (one fsync), {e then} call the held
    replies and write the queued frames — so no acknowledgement leaves
    the process ahead of the log bytes that justify it. A leader whose
    term and vote are already durable, and whose log only grows,
    writes its frames before its own fsync instead: they acknowledge
    nothing, and the followers' fsyncs overlap its own.

    Replica-plane queries never enter the worker lanes' queue; the
    lanes keep the computes. A write holds the server's [reply]
    callback until it applies, and a linearizable read until it is
    confirmed, or until the leader is deposed, the deadline passes, or
    the server stops. With a [state_dir], a SIGKILLed
    replica restarts from its segment and re-applies committed entries
    idempotently. A replica's Raft keeps no simulator trace. *)

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
      (** Plain-read freshness bound: reads are refused when the
          replica's last contact is older than this. A follower's last
          contact is its last message while it knew a leader; a
          leader's is the latest time by which it had heard from
          enough peers to make a majority with itself. *)
  commit_timeout_seconds : float;
      (** How long a write waits for its commit, and a linearizable
          read for its confirmation, before it is answered
          [deadline_exceeded] (safe to retry: apply is idempotent). *)
}

val default_config :
  id:int -> n:int -> base_port:int -> service_port:int -> config
(** Seed 42, no persistence, no chaos, 2 workers, 1 s staleness
    budget, 4 s commit timeout. *)

val raft_port : config -> int -> int

type t

val start : config -> t
(** Bind the raft listener and service port, restore persisted state
    if present, and start the server with the Raft as its plane.
    Raises on port conflicts, a damaged segment, or an out-of-range
    id. *)

val stop : t -> unit
(** Graceful: {!Service.Server.stop}, whose drain answers new writes
    [shutting_down] and whose loop, before it closes the connections,
    answers every write still waiting [shutting_down]; then close the
    raft-plane sockets, proxies and segment. Idempotent. A cycle that
    raises — a disk error, say — answers every waiting write
    [internal] and shuts the loop down the same way, closing the
    listeners and connections so clients fail over. *)

val set_chaos_plan : t -> Service.Chaos.plan -> unit
(** Swap the plan on every outbound link proxy (live connections are
    reset so accept-time faults like blackholes take effect) — the
    mid-append blackhole lever of the inter-replica chaos tests.
    No-op when chaos is disabled. *)

val id : t -> int
val service_port : t -> int

val is_leader : t -> bool
(** From the status snapshot published at the end of every cycle. *)

val term : t -> int
val leader_hint : t -> int option
val state_counts : t -> State.counts
val status_json : t -> Obs.Json.t
