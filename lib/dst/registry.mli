(** Name → DST system dispatch, shared by the [probcons dst]
    subcommand, the replay tool, and the corpus test.

    Systems hide their case type behind {!packed} (an existential), so
    callers soak or replay any registered system uniformly. The
    ["sim"] alias expands to every in-process simulator system — the
    nightly matrix leg that sweeps all four protocols. *)

type packed = Packed : 'c Harness.system -> packed

val expand : string -> (string list, string) result
(** [expand "sim"] is every simulator system: ["sim-raft"; "sim-pbft";
    "sim-benor"; "sim-rabia"]. A registered name (those four,
    ["service"], ["fleet"] and ["replica"]) maps to itself; anything
    else is an [Error] listing valid names. *)

val find : seeded_bug:bool -> string -> (packed, string) result
(** Look a system up by its registered name. [seeded_bug]
    parameterizes the {e generator} of the ["service"] system only
    (other systems ignore it); replayed artifacts always carry their
    own recorded value. *)

type finding = {
  repro : Repro.t;  (** The (shrunk) failing case's artifact. *)
  faults : int;  (** Faults in the final case, counted by its system. *)
  ops : int;  (** Operations in the final case. *)
}

val soak :
  ?seeded_bug:bool ->
  ?shrink:bool ->
  ?log:(string -> unit) ->
  string ->
  seed:int ->
  episodes:int ->
  (finding option, string) result
(** [soak system ~seed ~episodes] — the body of [probcons dst]: {!expand}
    [system], then {!Harness.soak} each system in turn and stop at the
    first violation, shrunk unless [shrink] is false. [Ok None] when
    every episode of every system passed; [Error] for an unknown
    system. [log] receives per-system and per-episode progress lines. *)

val over_bounds : ?max_faults:int -> ?max_ops:int -> finding -> string list
(** One message per count above its bound ([dst --max-shrunk-faults]
    and [--max-shrunk-ops]); empty when the finding is within both. *)

val replay : Repro.t -> (string, string) result
(** Dispatch on the artifact's recorded system name and re-execute it:
    [Ok] iff the run matches the artifact's expectation ([expect:
    fail] must fail the same invariant; [expect: pass] must pass). *)
