(** Quorum-placement durability analysis (the paper's E5 scenario).

    Raft is oblivious to fault curves: committed data may land on
    whichever [|Q_per|] nodes answered first — possibly the least
    reliable ones. This module quantifies the durability of a committed
    operation (the probability that at least one holder of the data
    survives) under different placement policies, including the
    paper's proposal of requiring quorums to contain a reliable node. *)

type placement =
  | Worst_case
      (** Adversarial scheduling: the quorum is the [size] most
          failure-prone nodes — what a fault-curve-oblivious protocol
          must assume. *)
  | Best_case  (** The [size] most reliable nodes. *)
  | Random
      (** Uniformly random quorum — the expected behaviour of an
          oblivious protocol with symmetric load. *)
  | Constrained of { reliable : int list; min_reliable : int }
      (** Quorums must include at least [min_reliable] nodes from
          [reliable]; evaluated at the worst quorum satisfying the
          constraint — the paper's fault-curve-aware fix. *)

val data_loss_probability : Faultmodel.Fleet.t -> placement -> size:int -> float
(** Probability that every member of the placed persistence quorum
    fails (committed data is lost). For [Random] this is the exact
    average over all [C(n, size)] quorums, via elementary symmetric
    polynomials. Raises [Invalid_argument] when [size] is outside
    [1, n], whatever the placement. *)

val durability : Faultmodel.Fleet.t -> placement -> size:int -> float
(** [1 - data_loss_probability]. *)
