(** Probabilistic (phi-accrual style) failure detector (paper §4).

    Instead of a binary suspect/trust verdict after a fixed timeout,
    accrual detectors output a suspicion level: phi = -log10 of the
    probability that the silence observed so far is consistent with the
    peer being alive, given its historical heartbeat inter-arrival
    distribution. Applications pick the threshold matching their own
    false-positive budget — guarantees in nines, end to end. *)

type t

val create : unit -> t
(** A detector that keeps the last 128 inter-arrival times. *)

val heartbeat : t -> now:float -> unit
(** Record a heartbeat arrival. Times must be non-decreasing. *)

val phi : t -> now:float -> float
(** Current suspicion level. [0.] while fewer than two heartbeats have
    been seen, rising without bound as silence stretches. Uses the
    exponential-tail approximation of the normal survival function, as
    in the original phi-accrual paper. *)

val suspect : ?threshold:float -> t -> now:float -> bool
(** [threshold] defaults to 8 (a one-in-10^8 false positive). *)
