(** Parameter sweeps: the grids operators actually consult.

    Batch wrappers over the analysis engine producing {!Report} tables
    (renderable as text or CSV): reliability across cluster sizes and
    fault probabilities, and the minimum cluster size meeting a target
    at each fault probability.

    A grid is a base {!Scenario} plus two axes of scenario
    transformers: every cell re-analyzes the transformed scenario
    through {!Registry.analyze}, the same path the CLI and query
    service answer through, so a cell and a served reply for the same
    scenario are the same number by construction. Cells are
    independent, so grids are evaluated concurrently on the domain
    pool; [?domains] caps the lanes (default {!Parallel.Pool.default},
    [PROBCONS_DOMAINS]-aware). Cell values are computed by the
    deterministic chunked engines, so the tables are identical for
    every lane count. *)

val scenario_grid :
  ?domains:int ->
  ?row_label:string ->
  base:Scenario.t ->
  rows:(string * (Scenario.t -> Scenario.t)) list ->
  cols:(string * (Scenario.t -> Scenario.t)) list ->
  unit ->
  Report.t
(** The general grid: each cell is [col (row base)] analyzed through
    the registry, rendered as a percent of P(safe and live); cells
    whose scenario the model rejects render as ["-"]. Axis entries
    carry their header/row label. *)

val raft_grid : ?domains:int -> ns:int list -> ps:float list -> unit -> Report.t
(** Safe-and-live probability of standard Raft for every (n, p) cell —
    the generalization of the paper's Table 2. *)

val pbft_grid : ?domains:int -> ns:int list -> ps:float list -> unit -> Report.t
(** Safe-and-live probability of default-parameter PBFT (Byzantine
    faults) for every (n, p) cell. *)

val pbft_safety_liveness_grid :
  ?domains:int -> ns:int list -> p:float -> unit -> Report.t
(** Safe, live, and safe-and-live per cluster size at one fault
    probability — the generalization of Table 1. *)

val min_cluster_frontier :
  ?domains:int -> targets:float list -> ps:float list -> unit -> Report.t
(** For each (target, p): the smallest Raft cluster meeting the target,
    or "-" when unattainable within 99 nodes. The cost-planning grid
    behind the paper's E3. *)

val table1 : unit -> Report.t
(** The paper's Table 1: default-parameter PBFT at N = 4, 5, 7, 8 with
    every fault Byzantine at p_u = 1% — quorum sizes, then safe, live
    and safe-and-live percentages. *)

val table2 : unit -> Report.t
(** The paper's Table 2: majority Raft at N = 3, 5, 7, 9 — quorum
    sizes, then safe-and-live at p_u = 1, 2, 4 and 8%. *)

val timeline : ?domains:int -> Faultmodel.Fleet.t -> times:float list -> Report.t
(** Raft safe-and-live probability of the fleet at each mission time —
    the operator's view of time-dependent fault curves (bathtubs,
    wear-out): reliability is not a number but a trajectory. *)

val horizon_grid :
  ?domains:int ->
  ?row_label:string ->
  base:Scenario.t ->
  rows:(string * (Scenario.t -> Scenario.t)) list ->
  unit ->
  Report.t
(** Time-axis grid over scenarios: rows are labelled transformers of
    [base] (which must carry a [horizon]); columns are the horizon's
    rounds; cells are P(live) at that round via
    {!Registry.analyze_horizon} — dynamic failure processes sweep along
    the time axis through the same path the service serves. Raises
    [Invalid_argument] when [base] has no horizon. *)
