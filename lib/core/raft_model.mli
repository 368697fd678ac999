(** Raft reliability model — Theorem 3.2 of the paper.

    Raft is safe iff its quorums are structurally large enough:
    [N < |Q_per| + |Q_vc|] (operations persist across views) and
    [N < 2 |Q_vc|] (a unique leader is elected per term). Safety does
    not depend on which crash faults occur — but it does require that
    faults be crashes: a Byzantine node voids Raft's safety argument
    entirely, so any configuration with a Byzantine member is deemed
    unsafe.

    Raft is live in a configuration iff enough correct nodes remain to
    assemble both quorums: [|Correct| >= max (|Q_per|, |Q_vc|)]. *)

type params = {
  n : int;
  q_per : int;  (** Persistence (log replication / commit) quorum size. *)
  q_vc : int;  (** View-change (leader election) quorum size. *)
}

val default : int -> params
(** Standard Raft: both quorums are majorities, [n/2 + 1]. *)

val flexible : n:int -> q_per:int -> q_vc:int -> params
(** Flexible-Paxos-style sizing; validated to stay within [1..n]. *)

(** Theorem 3.2's safety conditions, which depend only on the quorum
    sizes. *)

val protocol : params -> Protocol.t
(** The full model as analysis-ready predicates. *)

val safe_and_live_uniform : n:int -> p:float -> float
(** Convenience: P(safe and live) for a standard-Raft cluster of [n]
    nodes each failing (by crashing) with probability [p] — the
    quantity tabulated in the paper's Table 2. *)
