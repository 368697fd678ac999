(** Fault injection schedules.

    Translates a failure configuration — which nodes fail, how, and
    when — into engine events. The Monte-Carlo validation (E8) samples
    configurations from a fleet's fault curves and injects them here. *)

type fault =
  | Crash_at of float  (** Node stops processing and receiving. *)
  | Crash_restart of { at : float; back_at : float }
  | Byzantine_from of float
      (** Node keeps running but its protocol implementation is told to
          misbehave from this time on (equivocation etc. — interpreted
          by the protocol). *)

type plan = (int * fault) list

val apply :
  engine:Engine.t ->
  set_down:(int -> bool -> unit) ->
  set_byzantine:(int -> bool -> unit) ->
  plan ->
  unit
(** Schedule every fault in the plan. [set_down] should both mark the
    network endpoint down and stop the node's timers; [set_byzantine]
    flips the protocol's misbehaviour flag. *)

val of_failed_nodes : ?byzantine:bool -> ?at:float -> int list -> plan
(** The simplest plan: the listed nodes fail at time [at] (default 0),
    as crashes or Byzantine conversions. *)

val of_downtime : int -> (float * float option) list -> plan
(** Process-driven schedule for one node: each [(fail, Some back)]
    interval becomes a [Crash_restart] and an open [(fail, None)] tail
    becomes a permanent [Crash_at] — the shape
    [Faultmodel.Failure_process.sample_downtime] produces, letting a
    failure process drive the simulator without the sim layer depending
    on the fault-model library. *)

val sample_plan :
  Prob.Rng.t -> crash_probs:float array -> byz_probs:float array -> plan
(** Draw a configuration from per-node probabilities: each node
    independently becomes Byzantine (probability [byz_probs.(u)]),
    crashes ([crash_probs.(u)]), or stays correct, from time 0.

    {b Precedence}: the two outcomes are drawn from a single uniform
    roll per node with the Byzantine band first, so a node never
    receives both faults and {e Byzantine wins} whenever the combined
    probability mass exceeds 1 (e.g. both probabilities forced to 1.0
    yield an all-Byzantine plan). Effective crash probability is
    [min crash_probs.(u) (1 -. byz_probs.(u))]. Exactly one rng draw is
    consumed per node regardless of outcome.

    Raises [Invalid_argument] if the arrays differ in length. *)
