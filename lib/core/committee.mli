(** Committee sampling (paper §4, third direction).

    When a fleet's reliability exceeds the application's requirement,
    consensus does not need every node: select a committee just large
    (or just reliable) enough to meet the target nines, and run the
    protocol there — fewer messages, same guarantee. *)

type committee = {
  members : int list;  (** Node ids, most reliable first. *)
  params : Raft_model.params;
  p_safe_live : float;
}

val reliability_ranked : target:float -> Faultmodel.Fleet.t -> committee option
(** Smallest odd committee of the {e most reliable} nodes whose
    majority-Raft reliability reaches [target]. *)

val reliability_weighted :
  ?at:float ->
  uncertainty:(int -> float) ->
  target:float ->
  Faultmodel.Fleet.t ->
  committee option
(** Like {!reliability_ranked}, but nodes are ranked by
    [(1 - p) / (1 + uncertainty id)] — reliability discounted by how
    little we trust its estimate (e.g. a telemetry confidence-interval
    half-width). Under time-varying failure processes a stale confident
    estimate and a fresh bad one are equally poor committee material.
    With [uncertainty = fun _ -> 0.] this is exactly
    {!reliability_ranked}. Raises [Invalid_argument] on negative or
    non-finite uncertainty. *)

val random_committee : Prob.Rng.t -> size:int -> Faultmodel.Fleet.t -> committee
(** Algorand-style uniformly random committee of the given size (the
    fair/unpredictable option); reports the reliability it achieves. *)

val random_committee_size :
  Prob.Rng.t -> target:float -> Faultmodel.Fleet.t -> int option
(** Smallest odd size at which the {e expected} reliability of a random
    committee (averaged over 50 sampled committees) reaches the
    target. *)

val diversified_ranked :
  target:float ->
  domains:int list list ->
  max_per_domain:int ->
  Faultmodel.Fleet.t ->
  committee option
(** Like {!reliability_ranked}, but no more than [max_per_domain]
    members may share a fault domain (TEE platform, rack, rollout
    ring) — the correlated-failure mitigation of the paper's §2(3):
    cap every common shock below the committee's fault tolerance.
    Nodes in no listed domain are unconstrained. *)
