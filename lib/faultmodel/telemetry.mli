(** Synthetic telemetry and fault-curve estimation.

    The paper argues fault curves "can be computed using the large
    amount of telemetry that modern deployments track" (§1). Real
    telemetry is proprietary, so this module closes the loop
    synthetically: generate device lifetimes from a known ground-truth
    curve, observe them over a monitoring window, and fit a curve back
    — the estimation path a production deployment would run on its own
    fleet data. *)

type observation = {
  devices : int;  (** Devices under observation. *)
  device_hours : float;  (** Total observed uptime across the fleet. *)
  failures : int;  (** Devices that failed inside the window. *)
  lifetimes : float array;  (** Failure times of the failed devices. *)
  window : float;  (** Observation window length in hours. *)
}

val sample_lifetime : Prob.Rng.t -> Fault_curve.t -> float
(** Draw a lifetime (hours) from a curve by inverse-transform sampling
    (numeric inversion for shapes without a closed form). *)

val observe : Prob.Rng.t -> Fault_curve.t -> devices:int -> window:float -> observation
(** Simulate a fleet of identical devices watched for [window] hours;
    lifetimes beyond the window are right-censored into
    [device_hours]. *)

val afr_confidence : observation -> float * float
(** 95% interval on the AFR (normal approximation to the Poisson
    count, clamped to [0, 1]). *)

val fit_auto : observation -> Fault_curve.t
(** Picks between two censoring-aware MLEs by the uncensored
    log-likelihood, falling back to the exponential with fewer than 5
    failures: the exponential's rate is failures / device-hours; the
    Weibull enters surviving devices in the likelihood as
    right-censored at the window, so short monitoring windows no
    longer bias the shape toward infant mortality. *)
