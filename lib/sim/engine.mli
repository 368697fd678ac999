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

val advance : t -> until:float -> unit
(** [run ~until], then move the clock to [until] even when no event
    fell due there. For a caller slaving virtual time to a wall clock:
    work it schedules next is stamped with the present, not with the
    time of the last event. The 10-million-event backstop applies to
    each call, not to the engine's lifetime, so a process can advance
    one engine indefinitely. *)

val next_event_time : t -> float option
(** Virtual time of the earliest event still due to run, [None] when
    nothing is queued. Cancelled events at the head of the queue are
    discarded on the way; nothing runs. A caller slaving the clock to
    wall time sleeps until this instant. *)

val events_executed : t -> int

val stop : t -> unit
(** Make [run] return after the current callback. *)
