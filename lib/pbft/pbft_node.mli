(** A PBFT replica on the discrete-event simulator.

    Implements the three normal-case phases (pre-prepare / prepare /
    commit) and the view change, with every quorum size a parameter —
    exactly the knobs of Theorem 3.1: [q_eq] (non-equivocation /
    prepare), [q_per] (persistence / commit), [q_vc] (view-change) and
    [q_vc_t] (view-change trigger). Replicas can be switched into
    Byzantine mode, where they mount the attacks the theorem's
    conditions guard against:

    - an equivocating primary pre-prepares different commands to
      different replicas for the same slot;
    - a Byzantine backup prepares/commits a corrupted command;
    - every Byzantine replica periodically broadcasts spurious
      view-change votes (vote stuffing). *)

type config = {
  id : int;
  n : int;
  q_eq : int;
  q_per : int;
  q_vc : int;
  q_vc_t : int;
}

val default_config : id:int -> n:int -> config
(** Castro–Liskov quorums ([f = (n-1)/3], quorums [n-f], trigger
    [f+1]).

    Every replica waits 500ms on a pending request before suspecting
    the primary (the view-change timer). Every 1000ms it gossips its
    execution progress, which drives state transfer (the checkpoint
    mechanism's role): lagging replicas receive committed entries and
    adopt them once [q_vc_t] distinct peers vouch. A Byzantine replica
    broadcasts spurious view-change votes every 400ms. *)

type t

val create :
  config -> engine:Dessim.Engine.t -> net:Pbft_types.msg Dessim.Network.t ->
  trace:Dessim.Trace.t -> t

val id : t -> int
val executed_commands : t -> int list
(** Commands executed, in sequence order. *)

val set_down : t -> bool -> unit
val set_byzantine : t -> bool -> unit
val alive : t -> bool
