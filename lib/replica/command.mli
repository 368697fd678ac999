(** Replicated command records.

    Everything a replica deployment mutates travels through the Raft
    log as one of two ops, a [scenario_put] or a read barrier, encoded
    as canonical JSON; computes never do. The {e command
    id} is that canonical byte string ({!id}): a client retrying a
    [scenario_put] onto a new leader re-encodes to the same bytes, and
    the state machine ({!State}) applies each id at most once — so
    at-least-once delivery over failover yields exactly-once effects
    with no coordination beyond the log itself.

    The Raft layer stays untouched: log entries carry a dense integer
    sequence number ([Raft_types.Data seq]) and the command bytes ride
    next to the entries in the transport envelope, keyed by that
    sequence number (see {!Transport} and {!Node}). *)

type op =
  | Put_scenario of {
      name : string;
      scenario : Probcons.Scenario.t;
      nonce : int;
    }
      (** Store a named scenario. [nonce] distinguishes deliberate
          re-puts of identical content (0 = unset, omitted from the
          encoding). *)
  | Barrier
      (** A no-op sequenced through the log — the read barrier behind
          a linearizable get on a leader that has not yet committed an
          entry of its term, so cannot serve it by read-index: once the
          barrier commits, the leader's applied state is at least as
          fresh as every write acknowledged before the read began. *)

val to_string : op -> string
(** Canonical JSON: fixed field order, [nonce] omitted when 0. *)

val id : op -> string
(** The replication command id — the canonical JSON bytes. Equal ops
    have equal ids; the dedup key for idempotent apply. *)

val of_string : string -> (op, string) result
(** Total decoder; validates store names (1..64 bytes of
    [[A-Za-z0-9._-]]) and scenario contents. A ["warm"] record, the
    cache-warming op of older segments, decodes as [Barrier]. *)
