(** The deterministic-simulation test builder.

    A DST test is declared in a few lines as a {!system}: how to
    generate a test case from a seeded RNG, how to execute it
    deterministically and check its invariants, and how to propose
    smaller candidate cases. The harness then provides the three
    operations every system gets for free:

    - {!soak}: run seeded episodes until one fails an invariant;
    - {!shrink}: greedily minimize the failing case — drop faults,
      shorten op sequences, narrow latency windows — re-executing
      after every candidate reduction and keeping it only when the
      {e same} invariant still fails;
    - {!to_repro}/{!replay}: round-trip the minimal case through the
      versioned [probcons-repro/1] artifact so
      [dune exec tools/replay.exe] re-runs it: bit-for-bit for the
      simulated systems ([sim-*], [fleet], [replica]); for [service],
      which runs on the wall clock, with the same plan, op trace and
      invariant outcome (see {!Service_case}).

    Shrinking is monotone by construction: a candidate is accepted
    only when its {!measure} is lexicographically smaller — strictly
    fewer faults+ops, or equal count with a smaller numeric weight
    (narrowed windows, zeroed probabilities) — so every accepted step
    shrinks the case and the loop terminates. Both properties are
    qcheck-tested in [test/test_dst.ml]. *)

type outcome =
  | Pass
  | Fail of { invariant : string; detail : string }
      (** [invariant] is a stable name ("agreement",
          "typed_errors_only", ...) — the unit of sameness the
          shrinker preserves; [detail] is human context. *)

type measure = { units : int; weight : float }
(** Case size. [units] counts discrete structure (faults + ops);
    [weight] orders same-unit cases (sum of fault probabilities,
    latency windows). Compared lexicographically by {!smaller}. *)

val smaller : measure -> measure -> bool
(** [smaller a b]: is [a] strictly smaller than [b]? *)

type 'case system = {
  name : string;  (** Artifact [system] tag; stable across versions. *)
  generate : Prob.Rng.t -> 'case;
      (** Draw one episode's case — fault plan and op sequence — from
          the episode's derived RNG stream. *)
  run : 'case -> outcome;
      (** Execute and check every invariant: deterministically on a
          simulator, or on the wall clock for [service]. *)
  candidates : 'case -> 'case list;
      (** Strictly-smaller reduction candidates, most aggressive
          first. The harness re-checks {!smaller} itself, so a sloppy
          candidate list cannot break monotonicity. *)
  size : 'case -> measure;
  faults : 'case -> int;
      (** Discrete faults in the case — what [dst --max-shrunk-faults]
          bounds. *)
  ops : 'case -> int;
      (** Operations in the case — what [dst --max-shrunk-ops]
          bounds. *)
  encode : 'case -> Repro.parts;
  decode : Repro.parts -> ('case, string) result;
}

type 'case failure = {
  episode : int;
  episode_seed : int;  (** Derived stream: [Rng.of_pair seed episode]. *)
  case : 'case;
  invariant : string;
  detail : string;
}

type 'case shrunk = {
  final : 'case;
  final_detail : string;  (** Detail from the last failing re-run. *)
  steps : 'case list;
      (** Accepted reductions in order, ending with [final]; empty
          when the original case was already minimal. *)
  attempts : int;  (** Candidate executions, accepted or not. *)
}

type 'case soak_outcome =
  | All_passed of { episodes : int }
  | Found of { failure : 'case failure; shrunk : 'case shrunk option }

val episode_seed : seed:int -> episode:int -> int
(** The per-episode seed: deterministic in [(seed, episode)] so a
    soak's episode [k] can be replayed alone. *)

val soak :
  ?shrink:bool ->
  ?log:(string -> unit) ->
  'case system ->
  seed:int ->
  episodes:int ->
  'case soak_outcome
(** Run up to [episodes] seeded episodes, stopping at the first
    invariant violation. [shrink] (default true) minimizes it with
    {!shrink}; [log] receives progress lines, the shrinker's
    included. *)

val shrink :
  log:(string -> unit) ->
  'case system ->
  'case failure ->
  'case shrunk
(** Greedy fixpoint: repeatedly try [candidates], accept the first
    strictly-{!smaller} one that still fails the {e same} invariant,
    restart from it; stop when no candidate is accepted or 2000
    candidate executions have run. [log] receives a line per accepted
    reduction. *)

val to_repro :
  'case system -> seed:int -> elapsed_seconds:float ->
  'case failure -> 'case shrunk option -> Repro.t
(** Build the [probcons-repro/1] artifact for a (possibly shrunk)
    failure; [expect] is [`Fail] — the case reproduces a violation. *)

val replay : 'case system -> Repro.t -> (string, string) result
(** Decode the artifact's case and re-run it, checking the recorded
    expectation: an [expect = `Fail] artifact must fail the {e same}
    invariant again, an [expect = `Pass] artifact (a fixed bug kept as
    a regression test) must pass. [Ok msg] describes the confirmed
    outcome, [Error msg] the divergence. *)
