(** A whole Raft deployment in one simulator instance.

    Wires [n] replicas to a simulated network, drives a client
    workload, injects fault plans, and exposes the state the checkers
    need. *)

type t

val create :
  ?seed:int ->
  ?drop_probability:float ->
  ?q_vote:int ->
  ?q_replicate:int ->
  ?timeout_multipliers:float array ->
  ?initial_members:int list ->
  n:int ->
  unit ->
  t
(** [initial_members] switches the cluster to dynamic-membership mode:
    [n] is then the {e universe} of addressable nodes, of which only
    the listed ones participate initially; the rest idle as spares
    until a configuration change adopts them. *)

val engine : t -> Dessim.Engine.t
val trace : t -> Dessim.Trace.t
val node : t -> int -> Raft_node.t
val size : t -> int

val submit_workload :
  t -> commands:int list -> start:float -> interval:float -> unit
(** Schedule client submissions: each command is offered to whichever
    node claims leadership at its submission time, retrying every
    [interval] until accepted (or the run ends). *)

val inject : t -> Dessim.Fault_injector.plan -> unit

val partition_at : t -> time:float -> int list -> int list -> unit
(** Schedule a network partition between the two groups. *)

val heal_at : t -> time:float -> unit

val run : t -> until:float -> unit

val committed : t -> int -> int list
(** Node [i]'s applied command sequence, collected by its apply hook. *)

val leader_ids : t -> int list
(** Nodes currently claiming leadership (normally zero or one). *)

val current_leader : t -> int option
(** The highest-term node claiming leadership, if any. *)

val members_view : t -> int list option
(** The current leader's member set ([None] when leaderless). *)

val add_server : t -> int -> bool
(** Ask the current leader to add a (spare) universe node to the
    configuration. Dynamic mode only; [false] when leaderless or the
    change is invalid. *)

val remove_server : t -> int -> bool
(** Ask the current leader to remove a member (never itself). *)

val retire_at : t -> time:float -> int -> unit
(** Administratively power a node off at the given time — the
    operator's step after a removal commits, which also keeps the
    removed server from disrupting elections. *)

val message_stats : t -> int * int
(** [(sent, delivered)] network message counters — the communication
    cost the paper's related work (probabilistic quorums, committee
    sampling) trades against. *)
