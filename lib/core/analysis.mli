(** The probabilistic analysis engine.

    Computes P(safe), P(live) and P(safe and live) for a protocol model
    over a fleet, exactly as the paper's §3: sum the probabilities of
    the failure configurations the model classifies as safe (resp.
    live). Three engines, picked automatically:

    - {b Count DP}: when both predicates expose a count form, the joint
      (Byzantine, crashed) count distribution is computed by dynamic
      program ({!Config.joint_count_distribution}) — O(n^2) when every
      fault is of one kind, about n^3/6 cells for a mixed fleet,
      heterogeneous fleets included. Every cell of the paper's Tables
      1 and 2 evaluates through this path.
    - {b Exact enumeration}: node-identity-dependent predicates, up to
      [2^24] binary or [3^13] ternary configurations.
    - {b Monte Carlo}: anything larger, and all correlated models;
      returns a 95% confidence interval.

    Enumeration and Monte Carlo run on the {!Parallel} domain pool:
    the configuration space (or trial budget) is split into chunks
    whose boundaries depend only on the instance, each chunk keeps a
    Kahan-compensated partial sum (or its own RNG stream derived from
    [(seed, chunk)]), and partials are reduced in chunk order — so
    exact engines are bit-identical and Monte Carlo estimates
    seed-reproducible across any [?domains] setting, including
    sequential. The default lane count honours [PROBCONS_DOMAINS]. *)

type strategy =
  | Auto
  | Count_dp
  | Enumeration
  | Monte_carlo of int  (** Number of trials. *)

type result = {
  protocol : string;
  p_safe : float;
  p_live : float;
  p_safe_live : float;
  engine : string;  (** Which engine produced the numbers. *)
  ci_safe : (float * float) option;  (** Monte Carlo only. *)
  ci_live : (float * float) option;
  ci_safe_live : (float * float) option;
}

val run :
  ?at:float ->
  ?strategy:strategy ->
  ?seed:int ->
  ?domains:int ->
  Protocol.t ->
  Faultmodel.Fleet.t ->
  result
(** [at] is the mission time at which fault curves are evaluated
    (default one year). [domains] caps the parallel lanes used by the
    enumeration and Monte-Carlo engines (default: the {!Parallel.Pool}
    default; [0]/[1] force sequential); results are identical for every
    value. When parallel lanes were used, the [engine] string records
    it, e.g. ["enumeration-binary/8d"]. Raises [Invalid_argument] when
    the fleet size does not match the protocol's [n], or when a forced
    strategy cannot handle the instance. *)

(** {1 Horizon trajectories}

    Dynamic failure processes make availability a function of mission
    time; a horizon run evaluates the fleet's marginals round by round
    and re-analyzes each round. *)

type horizon_point = { at : float; result : result }

val horizon_times : horizon:float -> rounds:int -> float list
(** The [rounds] evaluation times [horizon * k / rounds], k = 1..rounds.
    Raises [Invalid_argument] on a non-positive horizon or rounds. *)

val run_horizon :
  ?strategy:strategy ->
  ?seed:int ->
  ?domains:int ->
  times:float list ->
  Protocol.t ->
  Faultmodel.Fleet.t ->
  horizon_point list
(** Per-round availability trajectory: for each time in [times]
    (ascending), evaluate the fleet's crash/Byzantine marginals at that
    mission time and analyze them. The first round always goes through
    the same strategy dispatch as {!run}, so it is bit-identical to
    [run ~at]; a round whose marginals are unchanged from the previous
    round reuses the previous result verbatim — in particular a fleet
    of constant curves ([Static] processes) yields a trajectory of
    results each bit-identical to [run]. Rounds whose marginals did
    change take the incremental Poisson-binomial fast path (engine
    ["incremental-pb"], O(n) per changed node, PR 8's
    divide-out/multiply-in with its 1e-9 drift contract) when the
    strategy is [Auto], both predicates have count forms and there is
    no Byzantine mass; otherwise they recompute exactly. *)

val run_correlated :
  ?trials:int ->
  Faultmodel.Correlation.t ->
  Protocol.t ->
  Faultmodel.Fleet.t ->
  result
(** Monte-Carlo analysis under a correlated failure model. Fault kinds
    follow [Correlation.sample_kinds]: a node's own fault is Byzantine
    with its [byz_fraction]; domain shocks carry their own
    [byzantine_shock] flag (a TEE vulnerability compromises, a rack
    power event crashes). *)

val pp_result : Format.formatter -> result -> unit
