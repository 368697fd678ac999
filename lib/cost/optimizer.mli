(** Min-cost deployment search.

    Answers the operator's question the paper poses: given a target
    number of nines of safe-and-live Raft, which machine class and
    cluster size is cheapest (or lowest-carbon) with no reliability
    trade-off? *)

type deployment = {
  machine : Machine.t;
  n : int;
  reliability : float;  (** P(safe and live) of the resulting cluster. *)
  hourly_cost : float;
  annual_carbon : float;
}

type objective = Cost | Carbon

val min_cluster : Machine.t -> target:float -> unit -> deployment option
(** Smallest (odd) Raft cluster of this class, of at most 99 nodes,
    reaching the target reliability. *)

val optimize : ?objective:objective -> target:float -> unit -> deployment option
(** Cheapest deployment over {!Machine.default_catalog} meeting the
    target, with clusters of up to 99 nodes. *)

val savings_vs :
  baseline:deployment -> deployment -> float
(** Cost ratio baseline/alternative (the paper's "3x reduction"). *)

val pp_deployment : Format.formatter -> deployment -> unit
