(** The hidden safety/liveness trade-off (the paper's E6 analysis).

    Under the f-threshold model a 4-node and a 5-node PBFT both
    "tolerate one fault", so the fifth node looks useless. Under the
    probabilistic model the 5-node system's larger quorums buy a
    42-60x reduction in unsafety for a 1.67x increase in unliveness.
    This module computes those ratios for arbitrary pairs of
    deployments. *)

type comparison = {
  base : Analysis.result;
  alt : Analysis.result;
  safety_improvement : float;
      (** unsafety(base) / unsafety(alt): how many times less likely
          the alternative is to violate safety. [infinity] when the
          alternative is perfectly safe. *)
  liveness_degradation : float;
      (** unliveness(alt) / unliveness(base): the liveness price paid. *)
}

val pbft_node_count : p:float -> n_base:int -> n_alt:int -> comparison
(** Compare default-parameter PBFT at two cluster sizes under uniform
    Byzantine fault probability [p]. *)
