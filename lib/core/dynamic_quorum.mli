(** Dynamic quorum sizing from fault curves (paper §4).

    Instead of hard-coding majorities, pick quorum sizes so the
    deployment meets an explicit probabilistic target. For Raft the
    structural safety constraints ([n < q_per + q_vc], [n < 2 q_vc])
    leave a one-dimensional family: growing the view-change quorum lets
    the persistence quorum shrink (Flexible Paxos), trading leader-
    election availability for cheaper commits. *)

type raft_choice = {
  params : Raft_model.params;
  p_live : float;
  p_safe_live : float;
}

val raft_sizings : Faultmodel.Fleet.t -> raft_choice list
(** All structurally safe (q_per, q_vc) pairs with minimal total size
    ([q_per = n - q_vc + 1]), most write-friendly (smallest [q_per])
    first, each with its liveness probability for this fleet. *)

val best_raft : target_live:float -> Faultmodel.Fleet.t -> raft_choice option
(** The smallest-[q_per] structurally safe sizing whose liveness still
    meets the target — cheap commits, probabilistic guarantee intact. *)

val best_raft_weighted :
  ?at:float ->
  uncertainty:(int -> float) ->
  target_live:float ->
  Faultmodel.Fleet.t ->
  raft_choice option
(** {!best_raft} against uncertainty-discounted reliabilities: node
    [id]'s effective fault probability is
    [1 - (1 - p) / (1 + uncertainty id)], so estimates we trust less
    count as less reliable and the chosen sizing is robust to them
    being wrong. [uncertainty = fun _ -> 0.] is exactly {!best_raft}.
    Raises [Invalid_argument] on negative or non-finite uncertainty. *)
