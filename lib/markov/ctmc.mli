(** Continuous-time Markov chains.

    The storage community quantifies reliability with Markov models —
    states are configurations (number of operational disks), and
    transitions carry failure rates (lambda) and repair rates (mu);
    MTTF and MTTDL fall out as absorption times (the paper's §2). This
    module provides exactly that machinery for consensus clusters. *)

type t
(** A CTMC over states [0 .. size-1]. *)

val create : int -> t
(** All-zero generator; add transitions with {!add_rate}. *)

val add_rate : t -> src:int -> dst:int -> float -> unit
(** Accumulate a transition rate; diagonal entries are maintained
    automatically. Rates must be nonnegative and [src <> dst]. *)

val generator : t -> Linalg.matrix
(** The generator matrix Q (rows sum to zero). *)

val steady_state : t -> float array
(** Stationary distribution; requires an irreducible chain. *)

val expected_time_to_absorption : t -> absorbing:(int -> bool) -> start:int -> float
(** Mean hitting time of the absorbing set from [start]; [0.] when
    [start] is itself absorbing, [infinity] when the set is
    unreachable. Solves the standard linear system over transient
    states. *)

val transient : t -> p0:float array -> t:float -> float array
(** [transient chain ~p0 ~t] is the state distribution at time [t]
    starting from distribution [p0], computed by uniformization
    (Poisson-weighted powers of the uniformized DTMC). Truncation error
    is below 1e-15 of total mass — far inside the 1e-9 tolerance the
    dynamic-failure cross-validation demands. Raises [Invalid_argument]
    on a size mismatch or a negative/non-finite time. *)

val simulate :
  t -> Prob.Rng.t -> start:int -> horizon:float -> (float * int) list
(** Jump-chain simulation up to the time horizon: list of
    [(entry_time, state)] pairs, first element [(0., start)]. Used to
    cross-validate the analytic solutions. *)
