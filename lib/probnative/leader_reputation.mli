(** Reliability-aware leader selection (paper §4, second direction).

    "Probabilistic approaches can choose leaders among the most
    reliable nodes, avoiding more failure-prone nodes." In
    timeout-based elections (Raft) the knob is each node's election
    timeout: scaling a node's timeout by its reliability rank makes the
    most reliable live node overwhelmingly likely to win the race. *)

val timeout_multipliers : ?spread:float -> Faultmodel.Fleet.t -> float array
(** Per-node multipliers in [1, 1+spread] (default spread 2): the most
    reliable node gets 1, the least reliable 1+spread. Feed to
    [Raft_cluster.create ~timeout_multipliers]. *)

val leader_fault_probability :
  Faultmodel.Fleet.t -> strategy:[ `Uniform | `Reputation ] -> float
(** Probability that the elected leader suffers a fault during the
    mission window: a fault-curve-oblivious election picks uniformly
    (expected fault probability = fleet average), a reputation-based
    one picks the most reliable node (= fleet minimum). The gap is the
    tail-latency/reconfiguration saving the paper points at. *)

val expected_reelections :
  Faultmodel.Fleet.t -> strategy:[ `Uniform | `Reputation ] -> horizon:float -> float
(** Expected number of leader changes over a mission window of
    [horizon] hours starting at 8766 h (one year): the sum over time
    steps of the chosen leader's hazard. A coarse model — one
    re-election per leader fault — sufficient to rank strategies. *)
