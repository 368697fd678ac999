(** The fleet controller: telemetry in, reconfiguration advice out.

    Each tick the controller pulls a batch of telemetry from a seeded
    {!Stream}, refits the reporting nodes' fault curves
    ({!Faultmodel.Telemetry.fit_auto}), counts the fleet's estimates
    once ({!Prob.Poisson_binomial.cdf_le}, O(n^2)), and checks the
    liveness probability against its target. When the guarantee slips
    it first tries a quorum resize
    ({!Probcons.Dynamic_quorum.best_raft}); when no structurally safe
    sizing restores the target it recommends — and applies — a
    preemptive swap of the riskiest node under the §4 swap rule
    {!Probnative.Preemptive_reconfig.decide}, which counts the
    estimates with the replacement in place.

    Runs are pure functions of the config: same seed, same
    recommendations, bit for bit. {!payload} is the one canonical JSON
    rendering, shared by the CLI and the query service. *)

type config = {
  nodes : int;
  seed : int;
  ticks : int;
  quorum : int;  (** Nodes that must be live; liveness = P(failures <= n - quorum). *)
  target_live : float;
  dynamic : bool;
      (** Time-varying ground truth: the stream runs its Markov
          degradation processes and the swap policy scores nodes by
          reliability weighted against estimate uncertainty,
          [(1 - estimate) / (1 + uncertainty)], instead of raw
          worst-estimate — under drift, confidence decays and the
          controller prefers replacing what it can no longer trust. *)
  stream : Stream.config;
}

val default_config :
  ?seed:int -> ?ticks:int -> ?dynamic:bool -> nodes:int -> unit -> config
(** Majority quorum, 3-nines liveness target. Default seed 42, 26
    ticks, [dynamic] off (threads through to the stream config).

    Every run evaluates fitted curves at a one-year horizon, installs
    2% AFR hardware on a swap, and tries a quorum resize only on fleets
    of up to 64 nodes (the search runs a full analysis per candidate
    sizing). *)

type action =
  | Resize of { q_per : int; q_vc : int; predicted_live : float }
      (** Adopt this structurally safe Raft sizing; liveness tracking
          switches to the [max q_per q_vc] nodes it needs live. *)
  | Swap of { node : int; estimate : float; predicted_live : float }
      (** Replace the named node (its fitted fault probability is
          [estimate]); applied to the stream and the estimates
          immediately. *)

type recommendation = { tick : int; p_live : float; action : action }

type outcome = {
  config : config;
  recommendations : recommendation list;
  final_quorum : int;
      (** Nodes that must be live at the end: [max q_per q_vc] of the
          last resize, or [config.quorum] if there was none. *)
  final_p_live : float;
  final_expected_failures : float;
  observations : int;  (** Telemetry reports consumed. *)
  failures_seen : int;  (** Device failures across all reports. *)
  device_hours : float;  (** Observed uptime across all reports. *)
}

val run : config -> outcome
(** Deterministic closed loop over [config.ticks] ticks. *)

val payload : outcome -> Obs.Json.t
(** Canonical JSON rendering — the fleet analogue of
    [Registry.payload]: CLI [--json] and the served reply both emit
    these exact bytes. *)

val ingest_payload : outcome -> Obs.Json.t
(** Telemetry-and-refit summary of the same run (no recommendations):
    the [fleet_ingest] wire payload. *)

val pp_outcome : Format.formatter -> outcome -> unit
