(** PBFT reliability model — Theorem 3.1 of the paper.

    For a failure configuration with Byzantine set [Byz] and correct
    set [Correct]:

    Safety holds iff
    {ol {- [|Byz| < 2 |Q_eq| - N] (non-equivocation quorums intersect in
           a correct node), and}
        {- [|Byz| < |Q_per| + |Q_vc| - N] (persistence and view-change
           quorums intersect in a correct node).}}

    Liveness holds iff
    {ol {- [|Byz| <= |Q_vc| - |Q_vc_t|],}
        {- [|Correct| >= max (|Q_eq|, |Q_per|, |Q_vc|)], and}
        {- [|Byz| < |Q_vc_t|] (Byzantine nodes alone cannot fabricate a
           view change).}}

    Note: the paper prints liveness condition (1) as
    [|Byz| <= |Q_vc_t| - |Q_vc|], which is negative for every row of its
    Table 1; the corrected orientation above reproduces the table
    exactly (see DESIGN.md, "Known paper erratum").

    Crashed nodes never endanger safety (they are silent) but count
    against [|Correct|] for liveness. *)

type params = {
  n : int;
  q_eq : int;  (** Non-equivocation quorum size. *)
  q_per : int;  (** Persistence quorum size. *)
  q_vc : int;  (** View-change quorum size. *)
  q_vc_t : int;  (** View-change trigger quorum size. *)
}

val default : int -> params
(** Castro–Liskov sizing: [f = (n-1)/3], quorums of [n - f], trigger of
    [f + 1] — the values in the paper's Table 1. *)

val make : n:int -> q_eq:int -> q_per:int -> q_vc:int -> q_vc_t:int -> params

val protocol : params -> Protocol.t
(** Theorem 3.1 as count predicates: safe iff
    [|Byz| < 2 q_eq - n] and [|Byz| < q_per + q_vc - n]; live iff
    [|Byz| <= q_vc - q_vc_t], [|Byz| < q_vc_t] and the correct nodes
    reach every quorum. *)

val safe_or_accountable : params -> Protocol.t
(** Protocol whose "safe" predicate is the weaker guarantee {e safe or
    accountable} (liveness unchanged) — the quantity the forensics
    literature argues deployments actually rely on. BFT forensics
    (Sheng et al., CCS'21 — the paper's related work on analyses
    beyond [f] failures): when safety breaks with [f < |Byz| <= 2f]
    culprits are identifiable from the signed quorum certificates;
    beyond [2f] even accountability is lost. Here [f = n - q_eq]. *)
