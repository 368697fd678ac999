(** Stake-weighted (proof-of-stake style) reliability model.

    The paper's §2: "stake in blockchain systems captures a similar
    idea: nodes with higher stake have more to lose... and thus are
    considered more trustworthy", and its related work covers
    stake-based protocols that assume more than f {e stake} never
    fails. Here the threshold is over stake, not node count, so the
    predicate depends on {e which} nodes fail — this model exercises
    the analysis engine's exact-enumeration path rather than the count
    DP. *)

type params = { stakes : float array  (** Per-node stake (positive). *) }

val make : float array -> params
(** Validates positivity of stakes. *)

val protocol : params -> Protocol.t
(** Safe while the Byzantine stake fraction is strictly below 1/3;
    live while the correct stake fraction is at least 2/3. *)

val nakamoto_coefficient : params -> int
(** Smallest number of nodes whose combined stake reaches the Byzantine
    bound — the usual decentralization metric: how few compromises
    break safety. *)
