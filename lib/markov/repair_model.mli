(** Storage-style reliability metrics for consensus clusters.

    Applies the storage community's method (the paper's §2): a
    birth-death CTMC whose states count failed nodes, with per-node
    failure rate [lambda] and repair rate [mu], yields MTTF (mean time
    until the cluster first loses its quorum), MTBF, steady-state
    availability, and MTTDL (mean time until committed data is lost).

    Rates are per hour; results are in hours. *)

type spec = {
  n : int;  (** Cluster size. *)
  quorum : int;  (** Nodes needed for progress (e.g. majority). *)
  lambda : float;  (** Per-node failure rate (1/MTTF_node). *)
  mu : float;  (** Per-node repair rate (1/MTTR_node); parallel repair. *)
}

val of_afr : n:int -> quorum:int -> afr:float -> mttr_hours:float -> spec
(** Build a spec from the fleet metrics operators actually track. *)

val mttf : spec -> float
(** Mean time, starting from an all-healthy cluster, until fewer than
    [quorum] nodes are alive — loss of liveness. Repairs operate in the
    transient states. *)

val mtbf : spec -> float
(** MTTF plus the cluster's MTTR, the mean time from quorum loss back
    to a quorum. *)

val availability : spec -> float
(** Steady-state fraction of time a quorum is alive. *)

val mttdl : spec -> float
(** Mean time to data loss: data is replicated on [quorum] nodes; a
    failed holder is re-replicated at rate [mu]; data is lost when all
    holders are simultaneously failed (the RAID-style computation, with
    k = quorum copies). *)
