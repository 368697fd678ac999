(** Seeded synthetic telemetry stream for the fleet controller.

    Every node carries a hidden ground-truth fault curve; each tick a
    round-robin batch of nodes reports a right-censored telemetry
    window drawn from its current truth via {!Faultmodel.Telemetry}.
    Ground truth drifts: periodically one node's AFR is multiplied by
    a degradation factor, so the fleet the controller believes in
    slowly stops being the fleet that exists — exactly the gap the
    refit loop is there to close.

    Everything is derived from [(seed, tick, node)] through split RNG
    streams, so a stream replays bit-identically: same seed, same
    events, same drift — the determinism the DST invariants and the
    wire cache both rely on.

    In {e dynamic} mode ([dynamic = true]) the ad-hoc step-drift
    schedule is replaced by a first-class ground truth: each node's
    degradation is an independent two-state on/off Markov process
    ({!Faultmodel.Failure_process.Markov}) advanced in simulated time
    (336 hours, two weeks, per tick). A degraded node's effective AFR
    is its base AFR times {!drift_factor}; recovery brings it back —
    so the fleet the controller chases both worsens {e and heals}, and tests
    can score the controller against the exact process via
    {!ground_truth_process}. *)

type config = {
  seed : int;
  nodes : int;
  drift_every : int;  (** A degradation event every this many ticks. *)
  dynamic : bool;  (** Markov ground truth instead of step drift. *)
}

val default_config : ?dynamic:bool -> seed:int -> nodes:int -> unit -> config
(** One degradation every 5 ticks. [?dynamic] (default [false])
    switches to Markov ground truth.

    Every stream draws ground-truth AFRs log-uniform in [0.01, 0.08];
    each tick a quarter of the fleet (at least one node) reports, each
    report observing 256 devices over a one-year window. *)

val drift_factor : float
(** 4: the AFR multiplier a degradation applies to its victim. *)

type event = {
  node : int;
  observation : Faultmodel.Telemetry.observation;
}

type t

val create : config -> t

val ground_truth_afr : t -> int -> float
(** The hidden per-node {e base} AFR — tests and drift checks only;
    the controller never reads it. In dynamic mode this is the Up-state
    AFR; degradation multiplies it transiently. *)

val ground_truth_process : t -> int -> Faultmodel.Failure_process.t
(** The node's ground-truth failure process: in dynamic mode the
    two-state degradation Markov process (fail at [base_afr / 1000]
    per hour, recover at [1 / 1000] per hour); otherwise the constant
    AFR curve. Tests and reliability-weighted selection only. *)

val ground_truth_degraded : t -> int -> bool
(** Whether the node's degradation process is currently in the Down
    state (always [false] in static mode). Advances the node's lazy
    Markov state to the current tick time. *)

val tick : t -> event list
(** Advance one tick: apply any scheduled degradation, then draw the
    reporting batch's observations. Events are in ascending node
    order. *)

val replace : t -> int -> afr:float -> unit
(** Swap the node's hardware: reset its ground truth to [afr] — the
    stream-side effect of a controller-applied preemptive
    reconfiguration. *)
