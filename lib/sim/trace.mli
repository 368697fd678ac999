(** Simulation trace recording.

    Checkers consume traces rather than peeking at live protocol state,
    so a checker cannot perturb a run and a run can be audited after
    the fact. *)

type entry = {
  time : float;
  node : int;
  tag : string;  (** e.g. "become-leader", "commit", "view-change". *)
  detail : string;
}

type t

val create : unit -> t
val record : t -> time:float -> node:int -> tag:string -> detail:string -> unit
val entries : t -> entry list
(** In chronological (recording) order. *)

val count : t -> tag:string -> int
