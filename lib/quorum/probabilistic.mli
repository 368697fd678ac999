(** Probabilistic quorums (Malkhi–Reiter–Wright) and sampling bounds.

    Classical quorum systems guarantee intersection; probabilistic ones
    only guarantee it with probability 1-eps, in exchange for
    O(sqrt N)-sized quorums. The paper leans on exactly this relaxation
    for its probability-native vision (§4), and its E4 claim — a random
    5-node view-change trigger quorum at p=1% contains a correct node
    with ten nines — is the [contains_correct] computation here. *)

val intersection_probability : n:int -> k1:int -> k2:int -> float
(** Probability that two independent uniformly random subsets of sizes
    [k1] and [k2] of an [n]-universe intersect: one minus their
    disjointness, C(n-k1, k2) / C(n, k2). *)

val epsilon_intersecting_size : n:int -> epsilon:float -> int
(** Smallest [k] such that two random [k]-subsets intersect with
    probability >= 1 - epsilon. Grows as O(sqrt (n ln (1/eps))). *)

val contains_correct : n:int -> k:int -> p:float -> float
(** Probability that a uniformly random [k]-subset contains at least
    one correct node when every node is independently faulty with
    probability [p]: [1 - p^k]. *)

val quorum_size_for_correct : p:float -> target:float -> int
(** Smallest [k] with [contains_correct >= target] — how big a
    view-change trigger quorum really needs to be (the paper: 5 nodes
    at p=1% already give ten nines, vs the f-threshold model's 34 of
    100). *)

val expected_intersection : n:int -> k1:int -> k2:int -> float
(** Expected overlap of two independent random subsets: k1*k2/n. *)
