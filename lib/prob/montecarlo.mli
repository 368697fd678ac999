(** Confidence intervals for Monte-Carlo estimates.

    Used when the exact engines do not apply: correlated failure models,
    very large clusters, and validating executed protocols (experiment
    E8) against the closed-form analysis. *)

val wilson_interval : successes:int -> trials:int -> float * float
(** 95% Wilson score interval for a binomial proportion. *)
