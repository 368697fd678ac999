(** Deployment planner: from fault curves and an SLO to a complete
    probability-native deployment.

    This is the paper's §4 pieces composed into one decision: given a
    fleet (with individual fault curves) and a target number of nines,
    produce

    - the committee to run consensus on (smallest reliability-ranked
      subset meeting the target),
    - flexible quorum sizes on that committee (cheapest commit quorum
      whose liveness still meets the target),
    - a reliability-ordered leader preference, expressed as election
      timeout multipliers,
    - the achieved probabilistic guarantee, stated in nines.

    The plan is directly executable: {!execute} wires it into the
    simulated Raft implementation and checks the run. *)

type plan = {
  committee : int list;  (** Fleet node ids, most reliable first. *)
  quorums : Probcons.Raft_model.params;  (** Sized over the committee. *)
  timeout_multipliers : float array;
      (** Per committee member (same order as [committee]). *)
  p_live : float;
  p_safe_live : float;
}

val plan : target:float -> Faultmodel.Fleet.t -> plan option
(** [None] when no committee of this fleet can meet the target. The
    quorum sizing is given one extra committee growth step to relax:
    if the minimal committee admits no flexible sizing at the target,
    majority quorums on that committee are used. *)

type execution = {
  safe : bool;
  live : bool;
  leader_was_most_reliable : bool;
      (** Whether the final leader is the plan's preferred node. *)
}

val execute :
  ?seed:int ->
  ?crash:int list ->
  Faultmodel.Fleet.t ->
  plan ->
  execution
(** Run the plan on the simulator: build a Raft cluster over the
    committee with the plan's quorum sizes and timeout multipliers,
    optionally crash the listed committee {e positions}, drive a
    client workload of 10 commands, and check safety/liveness. *)

val pp_plan : Format.formatter -> plan -> unit
