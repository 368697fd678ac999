(** Probability distributions used by the fault analysis.

    Binomial machinery drives the uniform-fleet fast paths (every cell
    of the paper's Tables 1 and 2); exponential and Weibull lifetimes
    underlie fault curves. *)

val binomial_pmf : n:int -> p:float -> int -> float
(** [binomial_pmf ~n ~p k] = P(X = k) for X ~ Binomial(n, p). Computed
    in log space; exact to float precision even deep in the tails. *)

val binomial_cdf : n:int -> p:float -> int -> float
(** P(X <= k). *)

val binomial_tail_ge : n:int -> p:float -> int -> float
(** P(X >= k); summed from the smaller side for accuracy. *)

val binomial_sample : Rng.t -> n:int -> p:float -> int

val weibull_survival : shape:float -> scale:float -> float -> float
(** P(lifetime > t) = exp (-(t/scale)^shape). [shape < 1] models infant
    mortality, [shape > 1] wear-out — the two ends of the bathtub. *)

val weibull_hazard : shape:float -> scale:float -> float -> float
(** Instantaneous failure rate at time [t]. *)

val weibull_sample : Rng.t -> shape:float -> scale:float -> float

val exponential_fit : float array -> float
(** Maximum-likelihood rate for i.i.d. exponential lifetimes (1/mean).
    Raises [Invalid_argument] on an empty array. *)

val weibull_fit_censored :
  failures:float array -> censored:(float * int) array -> float * float
(** Right-censored Weibull MLE: [failures] are observed lifetimes,
    [censored] are [(time, count)] groups of [count] units still alive
    when observation stopped at [time] (a fleet watched over one window
    is one group). Essential for telemetry windows shorter than
    typical lifetimes, where the uncensored fit is badly biased toward
    short lives. With no censored units it is the plain MLE:
    [(shape, scale)] by bisection on the profile-likelihood score.
    Requires at least two failures; raises
    [Invalid_argument] on a nonpositive failure time, a negative count,
    or a nonpositive time in a group of at least one unit.

    A group costs one power and one log per score evaluation, whatever
    its count, and the result is bit-identical to the fit with the
    groups expanded to one [(time, 1)] per unit: each unit's terms are
    still added one at a time, in the same order. *)
