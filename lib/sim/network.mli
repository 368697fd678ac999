(** Simulated message network.

    Point-to-point messaging between node ids with configurable
    latency, loss, partitions, and per-node up/down state. Delivery
    order between distinct pairs is whatever the latency samples
    dictate — the adversarial schedules consensus must tolerate. *)

type latency =
  | Fixed of float
  | Uniform of { lo : float; hi : float }
  | Lognormal_ish of { base : float; mean_extra : float }
      (** [base] propagation delay plus an exponential queueing tail
          with the given mean — a decent stand-in for datacenter RPC
          latency. *)

type 'msg t

val create :
  engine:Engine.t -> n:int -> ?latency:latency -> ?drop_probability:float -> unit -> 'msg t
(** Default latency [Uniform {lo = 1.; hi = 10.}] (milliseconds, by
    convention), no drops. *)

val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Install node [i]'s receive callback. Must be set before delivery. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Queue a message; it is silently dropped if either endpoint is down
    at delivery time, the pair is partitioned, or the loss coin fires.
    Self-sends are delivered (with latency) like any other message. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** Send to every node except [src]. *)

val set_down : 'msg t -> int -> bool -> unit
(** Mark a node crashed/recovered. Messages already in flight to a
    down node are dropped at delivery time. *)

val partition : 'msg t -> int list -> int list -> unit
(** Cut connectivity between the two groups (both directions). *)

val heal : 'msg t -> unit
(** Remove all partitions. *)

val messages_sent : 'msg t -> int
val messages_delivered : 'msg t -> int
