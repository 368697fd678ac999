(** The canonical deployment scenario: one typed description of
    "what is deployed", shared by every entry point.

    The paper's thesis is that reliability is a function of an explicit
    deployment description — a fleet of fault probabilities, a protocol,
    its quorum parameters, the analysis options. Before this module the
    repo had four drifting encodings of that description (CLI flags,
    wire params, sweep closures, bench hardcodes); a scenario is the one
    normal form they all parse into and print from.

    A scenario has {e one} canonical JSON encoding ({!to_json}, a fixed
    field order with ["%.17g"] floats) and {e one} total, bounds-checked
    parser ({!of_json}): the same object is a [--scenario FILE], the
    [params] of a wire [analyze] request, and the string inside a cache
    key, so byte-identity of results across layers reduces to equality
    of scenarios. Protocol {e names} are plain strings here; membership
    in the protocol registry is checked by {!Registry}, not by this
    module, so the spec type does not grow a case per protocol. *)

type t
(** Immutable, validated. Structural equality ({!equal}) coincides with
    canonical-encoding equality: [equal a b] iff
    [to_string a = to_string b]. *)

(** {1 Bounds}

    Shared with the wire layer: every scenario must analyze quickly,
    so fleets are capped where the count-DP engine, O(n²) for one
    fault kind and about n³/6 cells for a mixed fleet, stays in the
    tens of milliseconds. *)

val max_fleet_nodes : int
(** 200 — cap on the total node count of the mix. *)

val max_rounds : int
(** 64 — cap on horizon-trajectory rounds. *)

val default_rounds : int
(** 12 — rounds used when [horizon] is set but [rounds] is not. *)

(** {1 Construction} *)

val make :
  ?byz_fraction:float ->
  ?quorums:(string * int) list ->
  ?stakes:float list ->
  ?processes:Faultmodel.Failure_process.t list ->
  ?at:float ->
  ?seed:int ->
  ?horizon:float ->
  ?rounds:int ->
  protocol:string ->
  mix:(int * float) list ->
  unit ->
  (t, string) result
(** The only constructor; every field is validated:
    - [mix]: non-empty [(count, fault_probability)] groups, each count
      in [1, {!max_fleet_nodes}], probabilities finite in [0,1], total
      count at most {!max_fleet_nodes};
    - [byz_fraction]: finite in [0,1] — the fraction of each node's
      fault probability that is Byzantine rather than crash. [None]
      means "use the protocol's registry default";
    - [quorums]: at most 8 per-protocol quorum-size overrides (e.g.
      [("q_vc", 4)] for Raft, [("u", 2)] for Upright), each value in
      [0, 1000] (models tighten further); keys deduplicated-checked and
      stored sorted so the encoding is canonical;
    - [stakes]: per-node stakes (positive, finite), meaningful only for
      the stake protocol;
    - [at]: mission time in hours (finite, positive; default one year
      downstream);
    - [seed]: PRNG seed for Monte-Carlo engines;
    - [processes]: optional per-node failure processes, exactly one per
      node of the mix, each validated by
      {!Faultmodel.Failure_process.validate}. Absent means every node is
      [Static p] with its mix group's probability — the pre-process
      semantics, bit-identical;
    - [horizon]: optional trajectory horizon in hours (finite,
      positive) — analyze availability at {!default_rounds} (or
      [rounds]) times spaced evenly over [(0, horizon]];
    - [rounds]: trajectory resolution in [1, {!max_rounds}]; only
      meaningful (and only accepted) with [horizon]. *)

val uniform : protocol:string -> n:int -> p:float -> unit -> t
(** [uniform ~protocol ~n ~p ()] — the paper's §3 setting as a scenario.
    Raises [Invalid_argument] on invalid inputs (trusted-caller
    convenience over {!make}). *)

(** {1 Accessors} *)

val protocol : t -> string
val mix : t -> (int * float) list
val byz_fraction : t -> float option
val quorums : t -> (string * int) list
(** Sorted by key. *)

val quorum : t -> string -> int option
(** Lookup one override. *)

val stakes : t -> float list option
val at : t -> float option
val seed : t -> int option
val horizon : t -> float option
val rounds : t -> int option

val size : t -> int
(** Total node count of the mix. *)

val effective_processes : t -> Faultmodel.Failure_process.t list
(** The per-node processes, expanding an absent [processes] field to
    [Static p] per mix group — the normal form every dynamic consumer
    (horizon analysis, the simulator, reliability weighting) works on. *)

(** {1 Transformers}

    Functional updates for sweeps: a grid axis is a [t -> t]. All
    re-validate and raise [Invalid_argument] on violation (sweep axes
    are trusted code, not wire input). *)

val with_protocol : string -> t -> t
val with_mix : (int * float) list -> t -> t
val with_p : float -> t -> t
(** Replace every group's fault probability, keeping the counts. *)

val with_horizon : ?rounds:int -> float -> t -> t
(** Set the trajectory horizon (and optionally its resolution). *)

(** {1 Validation building blocks}

    Exposed so the CLI [--mix] converter and [Wire.parse_groups] are
    the same code path as {!of_json} — one validator, no drift. *)

val validate_mix : (int * float) list -> (unit, string) result

val mix_of_params : Obs.Json.t -> ((int * float) list, string) result
(** Parse the fleet part of a params object: either an explicit
    ["mix": [[count, p], ...]] or the ["n"]/["p"] shorthand, both
    normalizing to a validated group list. *)

(** {1 Canonical encoding} *)

val to_json : t -> Obs.Json.t
(** Fixed field order — [protocol], [mix], then [byz_fraction],
    [quorums], [stakes], [processes], [at], [seed], [horizon],
    [rounds], each omitted when absent — so the encoding is canonical:
    one scenario, one byte string. Scenarios without the new optional
    fields encode byte-identically to the pre-process format
    (regression-tested). *)

val to_string : t -> string

val of_json : Obs.Json.t -> (t, string) result
(** Total parser; accepts the [n]/[p] shorthand for the mix. The
    identity [of_json (to_json s) = Ok s] holds for every [s]
    (qcheck-tested). *)

val of_string : string -> (t, string) result

(** {1 Realization} *)

val fleet : byz_fraction:float -> t -> Faultmodel.Fleet.t
(** Build the fleet the scenario describes, splitting each node's fault
    probability into crash/Byzantine by [byz_fraction] (the caller —
    normally {!Registry} — resolves the scenario's optional field
    against the protocol default). With [processes] present each node
    carries its process realized as a fault curve
    ({!Faultmodel.Failure_process.to_curve}), so time-dependent
    evaluation ([?at], horizons) works through the same fleet path. *)

val equal : t -> t -> bool
