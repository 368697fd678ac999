(** A fleet: the set of replicas a consensus deployment runs on.

    Fleets are the unit of analysis — the probability engine consumes a
    fleet's per-node fault probabilities at a chosen evaluation time. *)

type t

val of_nodes : Node.t list -> t
(** Nodes are re-indexed 0..n-1 in list order. *)

val uniform : ?byz_fraction:float -> n:int -> p:float -> unit -> t
(** [uniform ~n ~p ()] — the paper's §3 setting: [n] nodes, each with a
    constant fault probability [p]. *)

val mixed : (int * float) list -> t
(** [mixed [(k1, p1); (k2, p2); ...]] builds [k1] nodes at constant
    probability [p1], then [k2] at [p2], etc. — e.g. the paper's E5
    cluster is [mixed [(4, 0.08); (3, 0.01)]]. *)

val size : t -> int
val nodes : t -> Node.t array
val node : t -> int -> Node.t

val fault_probs : ?at:float -> t -> float array
(** Per-node fault probabilities at mission time [at] (default one
    year), indexed by node id. *)

val byz_probs : ?at:float -> t -> float array
val crash_probs : ?at:float -> t -> float array

val most_reliable : t -> int list
(** Node ids sorted by ascending fault probability at one year (ties
    by id): the order reliability-aware leader election prefers. *)
