(** The versioned minimal-reproduction artifact, schema
    [probcons-repro/1].

    A failing soak episode — after shrinking — is emitted as one JSON
    object carrying everything a re-run needs: the root and
    per-episode seeds, the system tag, the system configuration
    ([scenario]), the fault [plan], the operation trace ([ops]), and
    the violated [invariant]. [dune exec tools/replay.exe FILE]
    re-executes it: bit-for-bit for the simulated systems ([sim-*],
    [fleet], [replica]); a [service] case re-runs the same plan and op
    trace on the wall clock, so its invariant outcome reproduces but
    its timeouts, reconnects and proxy counters can differ.
    [tools/validate_bench] checks the schema (missing
    seed/plan/invariant fields or non-finite timings reject).

    Artifacts committed under [test/repro/] are permanent regression
    tests: [expect = `Fail] means the violation must still reproduce
    (an open, intentionally-seeded bug), [expect = `Pass] means a
    once-failing case must now pass (the fix must hold). *)

type parts = {
  scenario : Obs.Json.t;
      (** System configuration: protocol, cluster size, wire version,
          seeds — whatever the system needs besides faults and ops. *)
  plan : Obs.Json.t;  (** The fault plan (system-specific encoding). *)
  ops : Obs.Json.t;  (** The operation trace, a JSON list. *)
}

type expect = [ `Fail | `Pass ]

type t = {
  seed : int;  (** Root soak seed. *)
  episode : int;
  episode_seed : int;
  system : string;
  invariant : string;  (** The violated invariant's stable name. *)
  detail : string;
  expect : expect;
  parts : parts;
  shrink_attempts : int;
  original_units : int;
  original_weight : float;
  shrunk_units : int;
  shrunk_weight : float;
  elapsed_seconds : float;  (** Wall time of the failing soak. *)
}

val of_json : Obs.Json.t -> (t, string) result
(** Total: a schema tag other than ["probcons-repro/1"], missing
    seed/plan/invariant/ops fields, or non-finite timings are
    [Error]s. *)

val write : path:string -> t -> unit
val read : path:string -> (t, string) result
