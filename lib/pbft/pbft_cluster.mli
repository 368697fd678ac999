(** A simulated PBFT deployment: replicas, network, client, faults. *)

type t

val create :
  ?seed:int ->
  ?drop_probability:float ->
  ?q_eq:int ->
  ?q_per:int ->
  ?q_vc:int ->
  ?q_vc_t:int ->
  n:int ->
  unit ->
  t

val engine : t -> Dessim.Engine.t
val trace : t -> Dessim.Trace.t
val node : t -> int -> Pbft_node.t
val size : t -> int

val submit_workload : t -> commands:int list -> start:float -> interval:float -> unit
(** Client broadcast: each command is sent to every replica (the PBFT
    retransmission case, which also lets backups start their
    view-change timers). *)

val inject : t -> Dessim.Fault_injector.plan -> unit
(** Supports both crash and Byzantine faults. *)

val run : t -> until:float -> unit

val executed : t -> int -> int list
