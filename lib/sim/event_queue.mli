(** Priority queue of timestamped events.

    Binary min-heap keyed by (time, sequence): ties in virtual time are
    broken by insertion order, which keeps simulations deterministic
    for a fixed seed regardless of heap internals. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] on NaN time. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)

val peek_time : 'a t -> float option

val clear : 'a t -> unit
