(** The uncertainty-weighted selectors as registry protocols.

    [raft-weighted] sizes flexible Raft quorums with
    {!Dynamic_quorum.best_raft_weighted}; [committee-weighted] picks
    the smallest sufficient committee with
    {!Committee.reliability_weighted}. Both take one optional quorum
    override, [target_nines] (default 3), and derive each node's
    uncertainty from the spread of its failure process's marginal
    across the scenario's mission window — static fleets (or scenarios
    with no [at]/[horizon]) get zero uncertainty and reduce to the
    unweighted selectors.

    The entries {!Probcons.Registry.register} themselves when this
    module is linked (the library is built with [-linkall], so linking
    [probnative] suffices — the CLI, service and tests all see them). *)
