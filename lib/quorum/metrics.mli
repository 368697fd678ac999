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

type rw_report = {
  n : int;
  r : int;  (** Read quorum size. *)
  w : int;  (** Write quorum size. *)
  consistent : bool;  (** [r + w > n]: reads see the latest write. *)
  write_serial : bool;  (** [2 w > n]: writes are totally ordered. *)
  read_availability : float;
  write_availability : float;
}

val evaluate_rw : n:int -> r:int -> w:int -> p:float -> rw_report
(** Classic read/write quorum replication: the read-vs-write
    availability trade-off at uniform node fault probability [p]. Small
    read quorums favour read availability; the consistency condition
    then forces large, fragile write quorums — the same
    structure-vs-probability tension the paper exposes in consensus. *)
