(** The replicated state machine behind the Raft apply hook.

    Deterministic and idempotent: applying the same command id twice
    is a recorded no-op ([dedup_skips]), which is what makes safe
    client retry and crash-recovery re-apply (commit index restarts at
    0 after {!Raft_node.restore}) correct without distributed
    coordination. Not thread-safe: a replica's loop thread owns it, and
    other threads read the {!counts} that {!Node} publishes in its
    status snapshot. *)

type t

type entry = {
  scenario : string;  (** Canonical scenario JSON, as put. *)
  nonce : int;
  seq : int;  (** The replicated command's sequence number. *)
}

val create : unit -> t

val apply : t -> seq:int -> Command.op -> id:string -> [ `Applied | `Duplicate ]
(** Apply one committed command. [`Duplicate] means the id was already
    applied and the state was left untouched (the idempotency seam the
    inter-replica chaos test asserts on). [Barrier] ops mutate nothing
    and are never duplicates. *)

val note_missing_payload : t -> unit
(** Record a committed sequence number whose command bytes were absent
    from the payload table — must stay 0 in every healthy run. *)

val seen : t -> string -> bool
(** Has this command id already been applied? *)

val get : t -> string -> entry option

type counts = {
  applied : int;  (** Data entries applied (barriers included). *)
  store_size : int;
  dedup_skips : int;
  missing_payloads : int;
  digest : int;  (** Order-sensitive digest of applied command ids. *)
}

val counts : t -> counts
