(** A single Raft replica, on whatever host gives it an {!io}.

    Full Raft: randomized leader election, log replication, commitment,
    follower log repair — with {e flexible} quorum sizes: the vote
    quorum [q_vote] and replication quorum [q_replicate] are
    parameters, so the simulator can execute exactly the
    [params] Theorem 3.2 reasons about (including deliberately unsafe
    sizings, whose violations the checkers then observe).

    Two membership modes:
    - {b static} (default): the member set is the whole universe
      [0..n-1] and quorum sizes come from the config — this is the mode
      the reliability experiments use;
    - {b dynamic} ([initial_members] given): membership travels through
      the log as [Config] entries (single-server changes, taking effect
      on append), quorums are majorities of the {e current} member set,
      and spare universe nodes idle until a configuration adopts them.
      This is the substrate for executing preemptive reconfiguration.

    Time units are milliseconds of the host's clock. *)

type config = {
  id : int;
  n : int;  (** Universe size (network endpoints). *)
  q_vote : int;  (** Votes needed to become leader (|Q_vc|); static mode. *)
  q_replicate : int;  (** Replicas (incl. leader) needed to commit (|Q_per|); static mode. *)
  timeout_multiplier : float;
      (** Scales this node's election timeout; reliability-aware leader
          selection gives reliable nodes small multipliers so they win
          races (see {!Probnative.Leader_reputation}). *)
  initial_members : int list option;
      (** [None]: static mode. [Some members]: dynamic-membership mode
          with this starting configuration. *)
}

val default_config : id:int -> n:int -> config
(** Majority quorums, multiplier 1, static membership. Every node's
    election timeout is drawn from 150-300ms (times its multiplier)
    and a leader heartbeats every 50ms. *)

type io = {
  now : unit -> float;  (** Stamps trace records. *)
  after : float -> (unit -> unit) -> unit -> unit;
      (** [after delay f] runs [f] in [delay] ms unless the returned
          function cancels it first. *)
  send : int -> Raft_types.msg -> unit;  (** To a peer's {!handle_message}, or lost. *)
}
(** The host's clock, timers and sends; none may call back into the
    node. *)

type t

val create : ?trace:Dessim.Trace.t -> config -> rng:Prob.Rng.t -> io:io -> t
(** Starts the node's election timer (members only, in dynamic mode),
    drawing its randomized timeouts from [rng]. Proposals, commits,
    applies and role changes are recorded into [trace] when one is
    given; the checkers read it. Without one nothing is recorded or
    formatted. *)

val handle_message : t -> Raft_types.msg -> unit
(** Process one message from a peer. A down node ignores it. *)

val accepts_append :
  t -> term:int -> prev_log_index:int -> prev_log_term:int -> bool
(** Whether {!handle_message} would take an [Append_entries] with
    these fields rather than reject it: its term is at least this
    node's, and the log holds an entry at [prev_log_index] of
    [prev_log_term] (index 0 matches term 0). A host that keeps data
    beside the log, such as command payloads, stores it only from an
    append this accepts. *)

val id : t -> int
val current_term : t -> int
val is_leader : t -> bool
val alive : t -> bool

val members : t -> int list
(** Current member set (sorted). In static mode, the whole universe. *)

val is_member : t -> bool

val submit : t -> int -> bool
(** Offer a client command; accepted (and replicated) only if this node
    currently believes it is the leader. *)

val read_index : t -> (int option -> unit) -> bool
(** Linearizable read without a log entry (read-index, Raft
    dissertation §6.4). Returns [false], registering nothing, unless
    this node leads and an entry of its current term has committed
    (then its commit index covers every write acknowledged before the
    call). Otherwise it probes every other member with a fresh round
    and calls the callback once: [Some index] — the commit index at
    the call — when the members that echoed that round or a later one,
    plus the leader, reach the replication quorum ({e inside} this
    call when the leader alone is a quorum); [None] when the node
    steps down or crashes first. The leader applies synchronously on
    commit, so its state machine is at or beyond [index] by then. The
    callback must not call back into the node. *)

val transfer_leadership : t -> int -> bool
(** Raft leadership transfer: ask a caught-up member to campaign
    immediately. Returns [false] unless this node is the leader, the
    target is a member other than itself, and the target's log matches
    the leader's. The leader keeps serving until it sees the higher
    term. *)

val submit_config : t -> int list -> bool
(** Propose a new member set (dynamic mode, leader only). Returns
    [false] if this node is not the leader, the mode is static, the
    proposal removes the leader itself, changes more than one server at
    a time, or leaves the cluster empty. *)

val log_entries : t -> Raft_types.entry list

val commit_index : t -> int

val set_down : t -> bool -> unit
(** Crash or restart the node. Crashing cancels timers; restarting
    re-enters follower state keeping persistent state (term, vote,
    log), as a real Raft with stable storage would. *)

val set_apply_hook : t -> (Raft_types.entry -> unit) -> unit
(** Install a callback invoked once per log entry, in log order, at the
    moment the entry is applied (its index passes the commit index).
    This is the replication seam: {!Replica} hosts a real state machine
    behind it. Config entries are delivered too (membership is applied
    internally either way). The hook must not call back into the node. *)

val leader_hint : t -> int option
(** Who this node believes is the current leader: itself when leading,
    otherwise the leader id from the most recent accepted
    [Append_entries]. [None] before any leader contact or while
    campaigning. The hint can be stale — callers use it for client
    redirects, not correctness. *)

(** {2 Durable state}

    What the paper requires on stable storage before answering RPCs:
    the hard state and the log. Read in place, so a persister can diff
    against what it already wrote without copying the log. *)

val hard_state : t -> int * int option
(** [(current_term, voted_for)]. *)

val last_index : t -> int
(** Index of the last log entry; 0 when the log is empty. *)

val term_at : t -> int -> int
(** Term of the entry at a 1-based index; 0 at index 0. Raises
    [Invalid_argument] past {!last_index}. *)

val entries_from : t -> int -> Raft_types.entry list
(** The entries from a 1-based index through {!last_index}, in order;
    [[]] when the index is past the end. *)

val restore : t -> term:int -> voted_for:int option -> log:Raft_types.entry list -> unit
(** Load persisted state into a freshly created node (before it has
    processed any message). The commit index intentionally restarts at
    0: committed entries are re-discovered from the leader and re-applied
    through the apply hook, so state machines behind the hook must be
    deterministic or idempotent. Raises [Invalid_argument] if the node
    already has a non-empty log or a non-zero term. *)
