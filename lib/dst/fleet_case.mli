(** DST system ["fleet"]: the fleet controller under the harness.

    A case is one seeded controller run (fleet size, tick count, seed,
    commit quorum, liveness target). Two invariants:

    - ["deterministic_recommendations"]: two runs of the same config
      render byte-identical canonical payloads — the property the wire
      cache and the replayable-recommendation guarantee rest on;
    - ["recommendations_consistent"]: every recommendation fired below
      the target, every swap predicts more than the liveness it fired
      at, every resize predicts at least the target, and the run ends
      on the [max q_per q_vc] of its last resize (the configured
      quorum if it never resized).

    Shrinking drops ticks and nodes; the op trace in a repro artifact
    is the tick sequence. A third of generated cases run with
    [dynamic = true] — Markov ground-truth degradation processes and
    the uncertainty-weighted swap policy — so both invariants soak
    against time-varying truth too; shrinking tries turning [dynamic]
    off first, and the artifact field is encoded only when true, so
    pre-dynamic repro artifacts keep their exact bytes. *)

type t = {
  nodes : int;
  ticks : int;
  seed : int;
  quorum : int;
  target_nines : float;
  dynamic : bool;
}

val system_name : string
(** ["fleet"]. *)

val system : unit -> t Harness.system
