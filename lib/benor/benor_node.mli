(** A Ben-Or replica.

    Classic crash-fault randomized binary consensus (Ben-Or, PODC'83):
    tolerates [f < n/2] crashes in a fully asynchronous network with no
    leader and no intersecting quorums. Each round:

    + {b Report}: broadcast the current estimate; collect [n - f]
      reports. If a strict majority of all [n] report the same value,
      carry it into phase 2, else carry [None].
    + {b Propose}: broadcast the carried value; collect [n - f]
      proposals. [f + 1] matching [Some v] proposals decide [v]; a
      single [Some v] adopts [v]; otherwise flip a local coin.

    Agreement and validity are deterministic; termination holds with
    probability 1 (each round has constant probability of unanimity
    once coins align). Deciders broadcast [Decided] so their halting
    never stalls the collection counts of others. *)

type config = {
  id : int;
  n : int;
  f : int;  (** Crash tolerance; requires [2 * f < n]. *)
  common_coin : int option;
      (** [Some seed]: all nodes share a deterministic per-round coin
          (as a Rabia-style shared coin would provide), collapsing the
          expected round count to O(1); [None] (default): independent
          local coins, the original Ben-Or. *)
}

val default_config : id:int -> n:int -> config
(** [f = (n - 1) / 2], local coins. A node gives up after 1000 rounds,
    a safety valve for the simulator. *)

type t

val create :
  config ->
  engine:Dessim.Engine.t ->
  net:Benor_types.msg Dessim.Network.t ->
  trace:Dessim.Trace.t ->
  initial:int ->
  t
(** [initial] must be 0 or 1. The node starts its round-1 broadcast
    immediately. *)

val decision : t -> int option
val decided_round : t -> int option
(** Round at which the decision was reached (1-based). *)

val set_down : t -> bool -> unit
