(** A Rabia-style replica: leaderless, quorum-intersection-free SMR.

    Slots are decided sequentially. Per slot:

    + {b Proposal exchange}: every participant broadcasts the head of
      its pending-command queue (or a null marker when idle) and
      collects [n - f] proposals. A command proposed by a strict
      majority of the whole cluster becomes the local {e candidate}.
    + {b Binary agreement biased toward null} (Rabia's Weak-MVC
      insight): input 1 when a candidate was seen, else 0, and on
      no-guidance rounds drift to 0 — deciding the null op is always
      safe, and the bias guarantees that a decided 1 is rooted in a
      strict proposal majority (so the command is recoverable from a
      correct holder). Two conflicting candidates are impossible (two
      strict majorities would intersect); deciding 0 commits a null
      operation and the commands retry in later slots.
    + {b Decision dissemination}: deciders broadcast the outcome with
      the command attached, so replicas that never saw the majority
      proposal (or halted instances) adopt and catch up.

    Tolerates [f < n/2] crashes; terminates with probability 1. *)

type config = { id : int; n : int }

val default_config : id:int -> n:int -> config
(** Tolerates [f = (n - 1) / 2] crashes; a slot gives up after 200
    binary-agreement rounds. Every 750ms a node re-sends its
    contributions for the slot it is stuck on: the slot machinery is
    purely message-driven, so under message loss a quorum-sized
    participant set stalls forever without retransmission; re-sends
    are deduplicated by receivers and cannot change what gets
    decided. *)

type t

val create :
  config ->
  engine:Dessim.Engine.t ->
  net:Rabia_types.msg Dessim.Network.t ->
  trace:Dessim.Trace.t ->
  t

val submit : t -> int -> unit
(** Enqueue a client command (idempotent per command id). *)

val committed : t -> int list
(** Committed non-null commands, in slot order. *)

val set_down : t -> bool -> unit
val alive : t -> bool
