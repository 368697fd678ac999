(** Failure configurations.

    The paper's §3 analysis enumerates the [2^N] (or, with crash and
    Byzantine faults distinguished, [3^N]) possible combinations of
    machine failures and weights each by its probability. A
    configuration assigns every node a status. *)

type status = Correct | Crashed | Byzantine

type t = status array

val num_crashed : t -> int
val num_byzantine : t -> int

val probability : crash_probs:float array -> byz_probs:float array -> t -> float
(** Probability of this exact configuration under independent per-node
    faults. [crash_probs.(u) + byz_probs.(u)] must not exceed 1. *)

val sample : crash_probs:float array -> byz_probs:float array -> Prob.Rng.t -> t
(** Draw a configuration under independence. *)

val joint_count_distribution :
  crash_probs:float array -> byz_probs:float array -> float array array
(** [d.(b).(c)] = P(exactly [b] Byzantine and [c] crashed nodes) — the
    two-type generalization of the Poisson binomial, computed by a
    dynamic program over the cells reachable after each node. It is
    O(n^2) when no node has one of the two fault kinds (a crash-only or
    all-Byzantine fleet) and walks about n^3/6 cells for a mixed one;
    {!count_dp_cells} gives the exact count. Drives the count-only fast
    path that evaluates every cell of the paper's tables. *)

val count_dp_cells : n:int -> mixed:bool -> int
(** How many cells {!joint_count_distribution} updates over [n] nodes:
    [n(n+3)/2] when every node's faults are of one kind ([mixed =
    false]), [sum_{u<n} (u+2)(u+3)/2] when both kinds occur. *)

val iter_binary_range :
  n:int -> byzantine:bool -> lo:int -> hi:int -> (t -> unit) -> unit
(** The configurations whose failures are all of one kind, with
    failed-set bitmask indices in [lo, hi) of [0, 2^n) — one worker's
    share of a chunked parallel enumeration. Raises for [n > 24]. *)

val iter_ternary : n:int -> (t -> unit) -> unit
(** Enumerate all [3^n] configurations. Raises for [n > 13]. *)

val ternary_cardinality : n:int -> int
(** [3^n], the length of {!iter_ternary}'s sequence. Raises for
    [n > 13]. *)

val iter_ternary_range : n:int -> lo:int -> hi:int -> (t -> unit) -> unit
(** The slice of {!iter_ternary}'s sequence with indices in [lo, hi):
    configurations are ordered as base-3 numerals with node 0 as the
    most significant digit (0 = correct, 1 = crashed, 2 = Byzantine).
    Concatenating the slices of a partition of [0, 3^n) reproduces
    {!iter_ternary} exactly. *)
