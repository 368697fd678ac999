(** The protocol registry: every analyzable protocol model as one
    record of data, dispatchable by name.

    The model family keeps growing (the motivation papers alone span
    CFT, BFT, forensic, dual-threshold, randomized and stake-weighted
    protocols), so "which protocols exist" must be data, not a variant
    type spread over four entry points. An {!entry} holds a protocol's
    name, its documentation, its per-model defaults (the crash/Byzantine
    split, node-count bound, quorum-override keys) and the function from
    a {!Scenario} to its {!model}; one set of functions below interprets
    every entry. The CLI, the query service, sweeps and the bench all
    dispatch through them by name — adding a protocol is one record in
    {!all}, a static list.

    Validation checks and analysis searches: {!validate} checks the
    scenario against its entry and runs nothing, while a weighted
    entry's structure search waits in its {!Predicate} until an analysis
    builds it.

    Payloads: {!analyze_json} is the {e single} renderer of analysis
    results, so a CLI [analyze --json], a service reply, and a bench
    row for the same scenario are byte-identical by construction. *)

type model =
  | Predicate of (unit -> (Protocol.t, string) result)
      (** Builds the predicate model; a weighted entry searches here,
          and its [Error] says that no structure meets the target. *)
  | Threshold of { n : int; k : int }
      (** A k-of-n threshold quorum system, analyzed for availability. *)

type entry = {
  name : string;  (** Registry key, as written in [Scenario.protocol]. *)
  doc : string;  (** One-line description for [probcons protocols]. *)
  default_byz_fraction : float;
      (** Fault-class split used when the scenario leaves
          [byz_fraction] unset: the fraction of each node's fault
          probability treated as Byzantine rather than crash. CFT models
          default to 0 (their analysis assumes crashes), full-BFT models
          to 1 (every fault spends the Byzantine budget); Upright uses
          the paper's mixed figure. *)
  max_nodes : int;
      (** Largest fleet the model analyzes interactively
          (enumeration-path models cap below [Scenario.max_fleet_nodes]). *)
  quorum_keys : string list;
      (** Quorum-override keys the model accepts (e.g. ["q_per"; "q_vc"]
          for Raft, ["u"; "r"] for Upright); any other key in the
          scenario is rejected. *)
  stakes_ok : bool;  (** Whether the scenario may carry stakes. *)
  counted : bool;
      (** Whether {!analyze} with the default strategy is one count-DP
          pass over the fleet and nothing costlier. *)
  model : Scenario.t -> (model, string) result;
      (** Checks the scenario's overrides and returns its model; runs
          no analysis and no search. A {!Threshold}'s range is checked
          with the checks every entry shares. *)
}

val all : unit -> entry list
(** raft, pbft, pbft-forensics, upright, benor, stake,
    quorum-availability, raft-weighted, committee-weighted — in that
    order. The two weighted entries size their structure with
    {!Dynamic_quorum.best_raft_weighted} and
    {!Committee.reliability_weighted}; each takes one quorum override,
    [target_nines] (default 3, checked to lie in [1, 12]), and derives
    node [id]'s uncertainty from the spread of its failure process's
    marginal across the scenario's mission window, so a static fleet,
    or a scenario with no [at]/[horizon], reduces to the unweighted
    selectors. *)

val names : unit -> string list

val validate : Scenario.t -> (unit, string) result
(** The scenario against its entry, without running anything: node
    bound, quorum keys and values, stakes applicability. Unknown names
    are an [Error] listing the known ones. A weighted scenario whose
    target no structure meets passes; its analysis is the [Error]. *)

val analyze :
  ?domains:int ->
  ?strategy:Analysis.strategy ->
  Scenario.t ->
  (Analysis.result, string) result
(** Validate, build and run. Deterministic: equal scenarios yield equal
    results for every [?domains]. [?strategy] overrides the engine's
    automatic DP-vs-enumeration selection ([Analysis.Enumeration] is
    the [--exact] escape hatch; a {!Threshold} maps it to exact subset
    enumeration). *)

val analyze_horizon :
  ?strategy:Analysis.strategy ->
  Scenario.t ->
  (Analysis.horizon_point list, string) result
(** Validate, build and run the per-round availability trajectory.
    [Error] when the scenario carries no [horizon]. *)

val protocol_of : Scenario.t -> (Protocol.t, string) result
(** The validated, built predicate model, for callers that drive the
    analysis engine directly (bench strategy comparisons). [Error] for
    a {!Threshold}, which has no predicate form. *)

val count_dp_cells : Scenario.t -> int option
(** When {!analyze} with the default strategy is one count-DP pass over
    the fleet (a [counted] entry, no horizon), the cells that pass walks
    ({!Config.count_dp_cells}), judged from the scenario alone: its
    size, and its effective [byz_fraction] (0 or 1 is one fault kind,
    anything between is two). [None] otherwise, and for an unknown
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
