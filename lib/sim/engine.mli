(** Deterministic discrete-event simulation engine.

    A virtual clock plus an event queue of callbacks. Protocol code
    schedules work with {!schedule}; the engine executes events in
    timestamp order (FIFO within a timestamp), advancing the clock
    discontinuously. With a fixed seed every run is bit-identical,
    which the safety checkers and the analytical-vs-simulated
    comparison (experiment E8) rely on. *)

type t

type cancel
(** Handle to a scheduled event; cancelling is O(1) and idempotent. *)

val create : ?seed:int -> unit -> t
val now : t -> float
val rng : t -> Prob.Rng.t
(** The engine's root RNG stream; components that need isolation
    should [Prob.Rng.split] it at setup time. *)

val schedule : t -> delay:float -> (unit -> unit) -> cancel
(** Run the callback [delay] time units from now. Negative delays
    raise [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> cancel
(** Absolute-time variant; times before [now] raise. *)

val cancel : cancel -> unit

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, stopping at [until] (virtual time), after
    [max_events] callbacks (default 10 million — a runaway-protocol
    backstop), or when no events remain. Events scheduled during the
    run are processed too. *)
