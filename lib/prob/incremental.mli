(** Incremental Poisson-binomial engine.

    {!Poisson_binomial.pmf} recomputes the whole success-count
    distribution in O(n^2) on every change. This engine maintains the
    distribution as a polynomial product [Π_i ((1-p_i) + p_i x)] and
    replaces one factor in O(n): divide the old factor out of the
    coefficient vector (a stable two-term recurrence, run in the
    direction that keeps the amplification ratio at most 1), then
    multiply the new factor in with Neumaier-compensated arithmetic.
    That pays only when few factors change between reads: the fleet
    controller and horizon trajectories move enough nodes per step that
    one {!Poisson_binomial.pmf} is cheaper, so they count from scratch
    and no production path uses the engine. It stays as the divide-out
    per-node importance needs (liveness with one node held up, then
    down, in O(n) per node).

    Divide-out is the ill-conditioned step: it both introduces fresh
    rounding and amplifies whatever error the coefficient vector
    already carries, by up to [amp p = min (2n) (1/|1-2p|)]. The
    engine therefore keeps a multiplicative drift account,
    [drift <- drift*amp + O(eps)*amp], and runs a full from-scratch
    refresh as soon as it crosses [drift_bound]. The bound is a hard
    accuracy contract: the held distribution never silently diverges
    from the scratch recompute by more than the bound plus the scratch
    DP's own O(n*eps) error. *)

type t

val create : ?drift_bound:float -> float array -> t
(** Build from per-node success probabilities (clamped to [0, 1]) via
    one full DP. O(n^2). The input array is copied. [drift_bound]
    defaults to [1e-9]: comfortably above per-update error for
    realistic fault probabilities (so refreshes are rare) and far below
    any probability a quorum decision would act on. *)

val prob : t -> int -> float
(** Current probability of factor [i]. *)

val probs : t -> float array
(** Copy of the current factor vector. *)

val update : t -> int -> float -> unit
(** [update t i p] replaces factor [i]'s probability with [p]
    (clamped). O(n), or O(n^2) on the updates that trip the drift
    refresh. No-op when [p] equals the current value. *)

val refresh : t -> unit
(** Force the full from-scratch DP now and reset the drift account. *)

val refresh_count : t -> int
(** Full DP recomputes so far, the initial {!create} excluded. *)

val update_count : t -> int
(** Factor replacements applied so far. *)

val drift : t -> float
(** Current accumulated conditioning-error bound (reset by refresh). *)

val drift_bound : t -> float

val pmf : t -> float array
(** Copy of the current distribution; element [k] is P(exactly [k]
    successes). Length [n + 1]. *)

val cdf_le : t -> int -> float
(** P(successes <= k). O(k). *)
