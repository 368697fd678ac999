(** Preemptive reconfiguration from predictive fault curves (paper §4).

    With time-dependent fault curves, the probability that the cluster
    stays live over the next window is computable in advance, so a
    node can be swapped out {e before} it fails. {!decide} is the one
    swap rule: {!Reconfig_executor} applies it on the simulator at each
    review, and [Fleetctl.Controller] applies it to the live fleet's
    estimates every tick. Callers pick the victim and the replacement;
    the rule decides whether the swap happens, and the caller applies
    it. *)

val window_liveness :
  Faultmodel.Fleet.t -> quorum:int -> start:float -> duration:float -> float
(** P(at least [quorum] nodes survive the window), from each node's
    conditional window failure probability. *)

val riskiest : ?eligible:(int -> bool) -> float array -> int option
(** Index of the largest risk among the [eligible] indices (default:
    all), the first one on ties; [None] when no index is eligible. *)

type decision = {
  victim : int;  (** Index of the node swapped out. *)
  risk : float;  (** Its failure probability before the swap. *)
  live_before : float;
  live_after : float;  (** Liveness with the replacement in place. *)
}

val decide :
  float array ->
  tolerated:int ->
  target_live:float ->
  victim:int ->
  replacement:float ->
  decision option
(** The §4 swap rule over per-node failure probabilities [risks],
    with liveness = P(failures <= [tolerated]). Swap node [victim] for
    a node of failure probability [replacement] only when liveness is
    below [target_live], the victim is riskier than the replacement,
    and the swap raises liveness. Pure: it counts [risks] and a copy
    with the victim swapped (two {!Prob.Poisson_binomial.cdf_le}
    passes, O(n^2) each) and leaves [risks] untouched. *)
