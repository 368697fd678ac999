(** Naor–Wool quality measures for quorum systems.

    The paper's related-work section points at the classical measures —
    load, capacity, availability — while noting they assume homogeneous
    failure probabilities. We provide both the classical (uniform-p)
    and the heterogeneous variants so the difference is measurable. *)

type report = {
  system : Quorum_system.t;
  min_quorum : int;
  load : float;  (** Uniform-strategy load (upper bound on system load). *)
  capacity : float;  (** 1 / load. *)
  availability : float;  (** P(live set contains a quorum). *)
  failure_probability : float;  (** 1 - availability — Naor–Wool F_p. *)
}

val evaluate_uniform : Quorum_system.t -> p:float -> report
(** Classical evaluation with every node failing with probability
    [p]. *)
