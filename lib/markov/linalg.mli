(** Small dense linear algebra for Markov-chain analysis.

    The chains in this toolkit have at most a few hundred states
    (cluster sizes), so dense Gaussian elimination with partial
    pivoting is exact enough and dependency-free. *)

type matrix = float array array
(** Row-major; [m.(i).(j)]. *)

val make : int -> int -> matrix
val copy : matrix -> matrix

val solve : matrix -> float array -> float array
(** [solve a b] returns [x] with [a x = b]. Raises [Failure] on a
    (numerically) singular system. The inputs are not modified. *)

val solve_normalized_nullspace : matrix -> float array
(** [solve_normalized_nullspace q] finds the probability vector [pi]
    with [pi q = 0] and [sum pi = 1] — the stationary distribution of
    the CTMC with generator [q]. Implemented by replacing one column of
    the transposed system with the normalization constraint. *)
