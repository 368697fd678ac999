(** The availability-measurement harness (experiment E24).

    Spawns [replicas] OS processes each running a {!Node}, SIGKILLs
    and restarts them on a schedule sampled from a
    {!Faultmodel.Failure_process} (mission hours scaled to wall
    seconds by [hours_per_second]), probes the deployment through
    {!Service.Client.Multi} in fixed windows, and compares measured
    per-window success rates against the analytical prediction
    ({!Probcons.Analysis.run_horizon} for majority-Raft over the same
    process) — the paper's claim, measured against our own serving
    stack. Emits the [probcons-repl-avail/1] artifact that
    [tools/validate_bench] gates in CI, including an end-of-run
    read-back proving no acknowledged write was lost. *)

val schema : string
(** ["probcons-repl-avail/1"]. *)

val service_port : base_port:int -> replicas:int -> int -> int
(** Replica [i]'s client-facing port under the deployment's port
    layout ([base_port + n + n*n + i], above the raft and link-proxy
    regions). *)

type config = {
  replicas : int;
  base_port : int;
  seed : int;  (** Drives the kill schedule (per-replica streams). *)
  process : Faultmodel.Failure_process.t;
  hours_per_second : float;
      (** Mission hours elapsing per wall-clock second. *)
  duration_seconds : float;
  window_seconds : float;
  probes_per_window : int;
  tolerance : float;  (** CI gate on |measured_mean - predicted_mean|. *)
  chaos : Service.Chaos.plan option;  (** Recorded in the artifact. *)
  state_root : string;
      (** Per-replica state dirs and logs live under here. *)
  child_argv : id:int -> string array;
      (** How to exec replica [id] (the CLI passes its own hidden
          [replica-node] subcommand). *)
  log : string -> unit;
}

type event = { at_seconds : float; kind : [ `Kill of int | `Restart of int ] }

val kill_schedule :
  seed:int ->
  replicas:int ->
  process:Faultmodel.Failure_process.t ->
  hours_per_second:float ->
  duration_seconds:float ->
  event list
(** Seed-deterministic, sorted by time: each replica's downtime
    intervals from [Failure_process.sample_downtime] under its own
    derived stream, scaled to wall seconds. *)

val predicted_windows :
  replicas:int ->
  process:Faultmodel.Failure_process.t ->
  hours_per_second:float ->
  midpoints_seconds:float list ->
  (float list, string) result
(** The analytical per-window liveness prediction: majority-Raft over
    [replicas] copies of [process], evaluated at each window midpoint
    (converted to mission hours) via {!Probcons.Analysis.run_horizon}.
    [Error] when [midpoints_seconds] is empty. *)

type window = {
  index : int;
  t_mid_seconds : float;
  ok : int;
  total : int;
  predicted : float;
}

val artifact :
  config ->
  windows:window list ->
  writes_acked:int ->
  writes_lost:int ->
  kills:int ->
  restarts:int ->
  Obs.Json.t
(** Render the [probcons-repl-avail/1] artifact (schema, deployment
    parameters, per-window measured-vs-predicted, means, abs error,
    tolerance, write-durability counts). Pure — unit-testable without
    processes. *)

val run : config -> (Obs.Json.t, string) result
(** The full experiment: spawn, wait for a leader, kill/restart on
    schedule while probing windows, restart everyone, read back every
    acknowledged write, reap the children, return the artifact.
    [Error] before anything is spawned when the window is not positive,
    a window has no probe, or the duration is shorter than one window;
    [Error] on startup failure (no leader within 20 s). *)

val supervise : config -> ready:(unit -> unit) -> unit
(** Serve without measuring: spawn the [replicas] processes on this
    process's stdio, call [ready], block until SIGINT or SIGTERM
    ({!Service.Server.wait_for_signal}), then SIGTERM and reap every
    child. Only [replicas], [state_root] and [child_argv] are used. *)
