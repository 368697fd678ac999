(** Machine catalog: price, reliability and carbon per node class.

    The paper's economic argument (E3): if node reliability is
    proportional to price — spot instances, older hardware — a larger
    cluster of cheaper, flakier nodes can match the reliability of a
    small cluster of premium nodes at a fraction of the cost. Real
    price sheets are vendor-specific; this catalog is synthetic but
    ratio-accurate (spot ~10x cheaper, ~8x flakier), which is what the
    claims depend on. *)

type kind = On_demand | Spot | Old_gen

type t = {
  name : string;
  kind : kind;
  hourly_cost : float;  (** USD per node-hour. *)
  fault_probability : float;
      (** Mission (one-year) fault probability — the [p_u] the analysis
          consumes. *)
  carbon_kg_per_hour : float;
      (** Embodied+operational carbon, kgCO2e per node-hour. Old
          hardware amortizes embodied carbon, hence lower. *)
}

val default_catalog : t list
(** Four representative classes: premium on-demand (p=1%), standard
    (2%), old-generation (4%), spot (8%). Spot is 10x cheaper than
    premium, matching the paper's E3 arithmetic. *)

val cluster_hourly_cost : t -> int -> float
val cluster_annual_carbon : t -> int -> float

val pp : Format.formatter -> t -> unit
