(** Name → DST system dispatch, shared by the [probcons dst]
    subcommand, the replay tool, and the corpus test.

    Systems hide their case type behind {!packed} (an existential), so
    callers soak or replay any registered system uniformly. The
    ["sim"] alias expands to every in-process simulator system — the
    nightly matrix leg that sweeps all four protocols. *)

type packed = Packed : 'c Harness.system -> packed

val names : string list
(** ["sim-raft"; "sim-pbft"; "sim-benor"; "sim-rabia"; "service";
    "fleet"]. *)

val expand : string -> (string list, string) result
(** [expand "sim"] is every simulator system; a registered name maps
    to itself; anything else is an [Error] listing valid names. *)

val find : ?seeded_bug:bool -> string -> (packed, string) result
(** Look a system up by its registered name. [seeded_bug]
    parameterizes the {e generator} of the ["service"] system only
    (other systems ignore it); replayed artifacts always carry their
    own recorded value. *)

val replay : Repro.t -> (string, string) result
(** Dispatch on the artifact's recorded system name and re-execute it:
    [Ok] iff the run matches the artifact's expectation ([expect:
    fail] must fail the same invariant; [expect: pass] must pass). *)

val replay_file : string -> (string, string) result
(** Read, parse, and {!replay} one artifact file. IO and schema errors
    are [Error]s too. *)
