(** A Rabia-style deployment in one simulator instance. *)

type t

val create :
  ?seed:int ->
  ?drop_probability:float ->
  n:int ->
  unit ->
  t

val engine : t -> Dessim.Engine.t
val node : t -> int -> Rabia_node.t

val submit_workload : t -> commands:int list -> start:float -> interval:float -> unit
(** Client broadcast: each command reaches every replica's queue. *)

val inject : t -> Dessim.Fault_injector.plan -> unit
(** Crash plans only. *)

val run : t -> until:float -> unit

type report = {
  agreement_ok : bool;  (** Committed sequences are prefix-compatible. *)
  live : bool;  (** Every expected command committed at every correct node. *)
  committed_counts : int array;
  null_slots : int;  (** Total null commits observed in the trace. *)
}

val check : t -> expected:int list -> correct:int list -> report

val message_stats : t -> int * int
(** [(sent, delivered)] network message counters — the communication
    cost the paper's related work (probabilistic quorums, committee
    sampling) trades against. *)
