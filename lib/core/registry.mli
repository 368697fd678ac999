(** The protocol registry: every analyzable protocol model as a
    first-class module, dispatchable by name.

    The model family keeps growing (the motivation papers alone span
    CFT, BFT, forensic, dual-threshold, randomized and stake-weighted
    protocols), so "which protocols exist" must be data, not a variant
    type spread over four entry points. A registry entry packages a
    protocol's name, its documentation, its per-model defaults (the
    crash/Byzantine split, node-count bound, quorum-override keys) and
    the function from a {!Scenario} to an analysis result. The CLI, the
    query service, sweeps and the bench all dispatch through it by name —
    adding a protocol is one entry in {!all}, a static list.

    Payloads: {!analyze_json} is the {e single} renderer of analysis
    results, so a CLI [analyze --json], a service reply, and a bench
    row for the same scenario are byte-identical by construction. *)

module type Protocol_model = sig
  val name : string
  (** Registry key, as written in [Scenario.protocol]. *)

  val doc : string
  (** One-line description for [probcons protocols]. *)

  val default_byz_fraction : float
  (** Fault-class split used when the scenario leaves [byz_fraction]
      unset: the fraction of each node's fault probability treated as
      Byzantine rather than crash. CFT models default to 0 (their
      analysis assumes crashes), full-BFT models to 1 (every fault
      spends the Byzantine budget); Upright uses the paper's mixed
      figure. *)

  val max_nodes : int
  (** Largest fleet the model analyzes interactively (enumeration-path
      models cap below [Scenario.max_fleet_nodes]). *)

  val quorum_keys : string list
  (** Quorum-override keys the model accepts (e.g. ["q_per"; "q_vc"]
      for Raft, ["u"; "r"] for Upright); any other key in the scenario
      is rejected. *)

  val protocol_of : Scenario.t -> (Protocol.t, string) result
  (** The validated predicate model, for callers that drive the
      analysis engine directly (bench strategy comparisons). [Error]
      for models with no predicate form (quorum availability). *)

  val validate : Scenario.t -> (unit, string) result
  (** Full scenario-against-model validation without running anything:
      node bound, quorum keys and values, stakes applicability. *)

  val count_dp_cells : Scenario.t -> int option
  (** When {!analyze} with the default strategy is one count-DP pass
      over the fleet, the cells that pass walks
      ({!Config.count_dp_cells}), judged from the scenario alone: its
      size, and its effective [byz_fraction] (0 or 1 is one fault kind,
      anything between is two). [None] for a horizon scenario and for
      a model that runs any other engine or searches for a structure
      first. *)

  val analyze :
    ?domains:int ->
    ?strategy:Analysis.strategy ->
    Scenario.t ->
    (Analysis.result, string) result
  (** Validate and run. Deterministic: equal scenarios yield equal
      results for every [?domains]. [?strategy] overrides the engine's
      automatic DP-vs-enumeration selection ([Analysis.Enumeration] is
      the [--exact] escape hatch; the quorum-availability model maps it
      to exact subset enumeration). *)

  val analyze_horizon :
    ?strategy:Analysis.strategy ->
    Scenario.t ->
    (Analysis.horizon_point list, string) result
  (** Validate and run the per-round availability trajectory. [Error]
      when the scenario carries no [horizon]. *)
end

type entry = (module Protocol_model)

val all : unit -> entry list
(** raft, pbft, pbft-forensics, upright, benor, stake,
    quorum-availability, raft-weighted, committee-weighted — in that
    order. The two weighted entries size their structure with
    {!Dynamic_quorum.best_raft_weighted} and
    {!Committee.reliability_weighted}; each takes one quorum override,
    [target_nines] (default 3), and derives node [id]'s uncertainty from
    the spread of its failure process's marginal across the scenario's
    mission window, so a static fleet, or a scenario with no
    [at]/[horizon], reduces to the unweighted selectors. *)

val names : unit -> string list

val validate : Scenario.t -> (unit, string) result
(** Dispatch on the scenario's protocol name; unknown names are an
    [Error] listing the known ones. *)

val analyze :
  ?domains:int ->
  ?strategy:Analysis.strategy ->
  Scenario.t ->
  (Analysis.result, string) result

val analyze_horizon :
  ?strategy:Analysis.strategy ->
  Scenario.t ->
  (Analysis.horizon_point list, string) result
(** Dispatch {!Protocol_model.analyze_horizon} on the scenario's
    protocol; requires the scenario to carry a [horizon]. *)

val protocol_of : Scenario.t -> (Protocol.t, string) result

val count_dp_cells : Scenario.t -> int option
(** Dispatch {!Protocol_model.count_dp_cells}; [None] for an unknown
    protocol. *)

val fleet_of : Scenario.t -> (Faultmodel.Fleet.t, string) result
(** The scenario's fleet with the model-resolved [byz_fraction]. *)

val payload : n:int -> Analysis.result -> Obs.Json.t
(** The one canonical result rendering: [protocol], [n], [engine],
    [p_safe], [p_live], [p_safe_live], [nines] in that order. *)

val analyze_json :
  ?strategy:Analysis.strategy ->
  Scenario.t ->
  (Obs.Json.t, string) result
(** [analyze] composed with {!payload} — what the service, the CLI
    [--json] mode and the bench all emit. A scenario carrying a
    [horizon] renders its trajectory instead: [protocol], [n],
    [horizon], [rounds], [min_p_live], then [trajectory] — a list whose
    elements are exactly {!payload} with the round's ["at"] prepended.
    Either way the bytes are the same across the CLI and the wire by
    construction. *)
