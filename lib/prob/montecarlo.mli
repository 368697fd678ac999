(** Monte-Carlo estimation with confidence intervals.

    Used when the exact engines do not apply: correlated failure models,
    very large clusters, and validating executed protocols (experiment
    E8) against the closed-form analysis. *)

type estimate = {
  mean : float;
  trials : int;
  successes : int;
  ci_low : float;  (** 95% Wilson interval, lower bound. *)
  ci_high : float;  (** 95% Wilson interval, upper bound. *)
}

val estimate_bool : ?trials:int -> Rng.t -> (Rng.t -> bool) -> estimate
(** [estimate_bool rng f] estimates P(f = true) over independent trials
    (default 100_000). Each trial receives the shared stream. *)

val wilson_interval : successes:int -> trials:int -> float * float
(** 95% Wilson score interval for a binomial proportion. *)

val within : estimate -> float -> bool
(** [within e p] is true when [p] lies inside the 95% interval. *)
