(** A Ben-Or deployment in one simulator instance. *)

type t

val create :
  ?seed:int ->
  ?drop_probability:float ->
  ?common_coin:int ->
  initial_values:int list ->
  unit ->
  t
(** One node per initial value (each 0 or 1), each tolerating the
    maximum [(n-1)/2] crashes. [common_coin] enables the shared
    per-round coin with the given seed. *)

val node : t -> int -> Benor_node.t

val inject : t -> Dessim.Fault_injector.plan -> unit
(** Crash plans only (Ben-Or here is the crash-fault variant). *)

val run : t -> until:float -> unit

type report = {
  agreement_ok : bool;  (** All decided nodes decided the same value. *)
  validity_ok : bool;
      (** The decision (if any) was some node's initial value — for
          binary consensus, violated only if unanimous inputs yield the
          other value. *)
  all_correct_decided : bool;
  decisions : (int * int option) list;  (** (node, decision). *)
  max_round : int;  (** Largest decision round among deciders. *)
}

val check : t -> correct:int list -> report
