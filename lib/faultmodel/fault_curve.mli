(** Fault curves: per-node, time-dependent failure probability.

    The paper's central abstraction (its §2): instead of a binary
    correct/faulty classification, every node [u] carries a curve
    [p_u(t)] — the probability that [u] is faulty during the mission
    window ending at time [t]. Curves come from telemetry, hardware
    ageing models, or trust judgements; this module provides the shapes
    those sources produce.

    Time is measured in hours throughout. *)

type t =
  | Constant of float
      (** Time-invariant fault probability — the setting of the paper's
          §3 analysis. *)
  | Exponential of { rate : float }
      (** Memoryless lifetime with failure rate [rate] per hour;
          [p(t) = 1 - exp (-rate * t)]. *)
  | Weibull of { shape : float; scale : float }
      (** Ageing lifetime; [shape < 1] infant mortality, [> 1]
          wear-out. *)
  | Bathtub of { infant : t; useful : t; wearout : t; t1 : float; t2 : float }
      (** Piecewise curve: [infant] before [t1], [useful] in the middle,
          [wearout] after [t2] — the canonical disk-reliability shape. *)
  | Empirical of (float * float) array
      (** Sorted [(time, p)] telemetry points, linearly interpolated and
          clamped at the ends. *)
  | Scaled of { factor : float; curve : t }
      (** Multiply another curve's fault probability by [factor]
          (clamped to 1): models software-rollout or geopolitical risk
          spikes on top of a hardware baseline. *)
  | Shifted of { offset : float; curve : t }
      (** Restart the curve's clock at [offset]: a node installed at
          mission time [offset] evaluates its curve at [t - offset].
          Before [offset] the probability is 0. *)
  | Markov_onoff of { fail_rate : float; recover_rate : float }
      (** Two-state on/off Markov process started Up: the node fails at
          rate [fail_rate] per hour and recovers at rate [recover_rate].
          [eval] is the exact transient probability of being Down at
          time [t], converging to the stationary unavailability
          [fail_rate / (fail_rate + recover_rate)] — the dynamic-failure
          model of "Bernoulli Meets PBFT". *)

val eval : t -> float -> float
(** [eval curve t] is the fault probability at mission time [t],
    always in [0, 1]. *)

val constant : float -> t
(** [constant p] with [p] clamped to [0, 1]. *)

val of_afr : float -> t
(** [of_afr afr] converts an Annual Failure Rate (e.g. [0.04] for the
    4% AFR the paper quotes for servers) into the exponential curve
    with that one-year failure probability. *)

val hazard_rate : t -> float -> float
(** Instantaneous failure rate at time [t] (numerically differentiated
    for shapes without a closed form). *)

val window_probability : t -> start:float -> duration:float -> float
(** Probability of failing during [start, start+duration] conditioned
    on being alive at [start]: drives preemptive reconfiguration. *)
