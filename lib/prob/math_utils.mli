(** Numeric helpers shared by the probabilistic analysis engines.

    All probabilities in this toolkit are ordinary [float]s; the helpers
    here exist to keep long summations accurate (Kahan compensation) and
    to evaluate combinatorial quantities without overflow (log space). *)

type kahan = { sum : float; comp : float }
(** Streaming compensated accumulator (Kahan–Babuška/Neumaier variant,
    which also survives terms larger than the running sum). Immutable
    so per-chunk partial sums can be built independently in parallel
    and reduced deterministically. *)

val kahan_zero : kahan

val kahan_add : kahan -> float -> kahan
(** One compensated accumulation step. *)

val kahan_total : kahan -> float
(** The accumulated sum. *)

val kahan_sum : float array -> float
(** Compensated summation; accurate for long sums of small terms. *)

val log_choose : int -> int -> float
(** [log_choose n k] is [log (n choose k)], from exact log-factorials
    below 256 and Stirling's series with correction terms above;
    [neg_infinity] when [n < 0], [k < 0] or [k > n]. *)

val choose : int -> int -> float
(** [choose n k] = binomial coefficient as a float; [0.] outside range. *)

val clamp_prob : float -> float
(** Clamp to [0, 1], mapping NaN to 0. *)
