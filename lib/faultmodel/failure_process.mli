(** First-class, time-varying failure processes.

    One abstraction behind Scenario, Analysis, the simulator and the
    fleet stream: a seed-deterministic model of a node's failure
    behavior over mission time, with a canonical JSON encoding shared
    by scenario files, the wire protocol and the reply cache.

    Three constructors cover the reproduction's needs: [Static p]
    (today's fixed per-node probability — bit-identical to the
    pre-process pipeline), [Curve] (any {!Fault_curve.t}: AFR drift,
    bathtub ageing, telemetry-fit shapes), and [Markov] (the two-state
    on/off process of "Bernoulli Meets PBFT" — nodes fail {e and
    recover}; the per-round marginal is the exact CTMC transient,
    cross-validated against [lib/markov]).

    The type lives here rather than in [lib/prob] because it reuses
    {!Fault_curve.t}, which itself depends on [prob]. *)

type t =
  | Static of float  (** Fixed fault probability at every mission time. *)
  | Curve of Fault_curve.t
      (** Time-varying marginal given directly by a fault curve. *)
  | Markov of { fail_rate : float; recover_rate : float }
      (** Two-state on/off CTMC started Up ([fail_rate], [recover_rate]
          per hour); the marginal at [t] is the transient probability of
          being Down. *)

val validate : t -> (t, string) result
(** Reject non-finite or out-of-range parameters, over-deep curve
    nesting (> 8 levels) and oversized empirical tables (> 64 points).
    Every constructor below and {!of_json} validates. *)

val static : float -> t
(** [static p] with [p] clamped to [0, 1]. *)

val markov : fail_rate:float -> recover_rate:float -> (t, string) result

val to_curve : t -> Fault_curve.t
(** Total realization as a fault curve: [Static p] becomes
    [Constant p], [Markov] becomes {!Fault_curve.Markov_onoff}. This is
    what lets every per-time path (Fleet, Analysis [?at]) work on
    processes unchanged. *)

val marginal : t -> float -> float
(** [marginal t at] is the probability the node is faulty at mission
    time [at] (hours), always in [0, 1]. Equal to
    [Fault_curve.eval (to_curve t) at]. *)

val is_static : t -> bool

val to_json : t -> Obs.Json.t
(** Canonical encoding: fixed field order, floats via [%.17g]. Shapes:
    [{"kind":"static","p":p}],
    [{"kind":"markov","fail_rate":l,"recover_rate":m}],
    [{"kind":"curve","curve":{...}}] where curve kinds are [constant],
    [exponential], [weibull], [bathtub], [empirical], [scaled],
    [shifted] and [markov]. *)

val of_json : Obs.Json.t -> (t, string) result
(** Total parser; validates. [of_json (to_json t) = Ok t]. *)

val sample_downtime :
  Prob.Rng.t -> t -> horizon:float -> (float * float option) list
(** Seed-deterministic downtime intervals within [0, horizon) hours,
    sorted by fail time; [(fail, Some back)] is an outage with
    recovery, [(fail, None)] is permanent. [Static]/[Curve] sample one
    lifetime (no recovery); [Markov] alternates exponential up/down
    dwells. *)
