(** Quorum systems.

    A quorum system over nodes [0..n-1] is a family of subsets
    (quorums). Consensus steps complete when some quorum replies;
    safety invariants hang on how quorums intersect (the paper's §3.1).
    This module represents the classical constructions and answers the
    structural questions the reliability analysis needs. *)

type t =
  | Threshold of { n : int; k : int }
      (** All subsets of size >= k — majority systems, Raft/PBFT
          quorums. *)
  | Weighted of { weights : int array; threshold : int }
      (** Subsets whose total weight reaches [threshold] — stake-based
          systems. *)
  | Grid of { rows : int; cols : int }
      (** Nodes arranged in a grid; a quorum is one full row plus one
          element from every row (row-cover construction), giving
          O(sqrt N) quorums that pairwise intersect. *)
  | Explicit of { n : int; quorums : Subset.t list }
      (** An arbitrary family, given by its (not necessarily minimal)
          members. *)

val majority : int -> t
(** [majority n] = [Threshold { n; k = n/2 + 1 }]. *)

val wheel : int -> t
(** The wheel system over [n >= 3] nodes: node 0 is the hub; quorums
    are [{hub, spoke}] for every spoke plus the all-spokes set. Tiny
    quorums (size 2) and O(1/n) load on spokes at the price of hub
    centrality — a classical trade-off point for the metrics module. *)

val size : t -> int
(** Universe size [n]. *)

val contains_quorum : t -> Subset.t -> bool
(** Does the given live-set contain at least one quorum? *)

val min_quorum_size : t -> int

val minimal_quorums : t -> Subset.t list
(** Minimal quorums, enumerated. Raises [Invalid_argument] for
    universes too large to enumerate (n > 24 for threshold-like
    systems). *)

val intersects_in : t -> t -> int
(** [intersects_in a b] = the minimum overlap between any quorum of [a]
    and any quorum of [b] (0 when some pair is disjoint). The paper's
    safety conditions are assertions that such minima are >= 1 (CFT) or
    large enough to contain a correct node (BFT). *)

val availability : ?domains:int -> ?exact:bool -> t -> float array -> float
(** [availability qs probs] = probability that the set of live nodes
    contains a quorum, when node [u] fails independently with
    probability [probs.(u)]. Threshold systems use the Poisson-binomial
    count DP; every other system enumerates all 2^n failure sets, so
    it raises [Invalid_argument] above [Subset.max_enumeration] nodes.
    [~exact:true] enumerates a threshold system too — the
    cross-validation surface for its count DP. *)

val uniform_strategy_load : t -> float
(** Load of the strategy that picks uniformly among minimal quorums
    (an upper bound on the Naor–Wool system load): the busiest node's
    access probability. *)
