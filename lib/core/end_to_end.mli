(** End-to-end guarantees: from consensus metrics to application SLOs.

    The paper's §4: "applications care about end-to-end reliability
    guarantees, where consensus is a small part of the system", and a
    live consensus protocol "might not be able to meet the availability
    requirements if its recovery or reconfiguration is intolerably
    slow". This module composes the pieces:

    - steady-state quorum availability from the Markov repair model,
    - amortized leader-failover downtime (a live protocol still stalls
      for the election timeout whenever its leader dies),
    - mission durability from MTTDL.

    Results are expressed the way applications state SLOs: nines of
    availability and nines of durability. *)

type t = {
  quorum_availability : float;
      (** Fraction of time at least a quorum is up (Markov steady
          state). *)
  failover_unavailability : float;
      (** Expected fraction of time lost to leader re-elections:
          leader failure rate x failover duration. *)
  availability : float;  (** End-to-end: quorum availability minus failover loss. *)
  durability : float;
      (** P(no committed data lost over the mission):
          [exp (-mission / MTTDL)]. *)
}

val evaluate :
  spec:Markov.Repair_model.spec ->
  failover_hours:float ->
  mission_hours:float ->
  t
(** [failover_hours] is the per-incident recovery time (election
    timeout + catch-up), e.g. [0.01] for ~36 seconds. *)

val required_failover_hours :
  spec:Markov.Repair_model.spec -> availability_nines:float -> float option
(** Largest per-incident failover time compatible with the target —
    [None] when even instantaneous failover cannot reach it (quorum
    availability is already below target). Inverts the availability
    composition; this is the "recovery must be fast enough" budget the
    paper points at. *)

val pp : Format.formatter -> t -> unit
