(** Ben-Or randomized binary consensus — wire messages.

    The paper's §4 points beyond quorum intersection to randomized,
    quorum-free agreement (Ben-Or 1983, Rabia). This module and its
    siblings implement classic crash-fault Ben-Or on the simulator:
    rounds of report/propose exchanges, local coin flips on
    disagreement, termination with probability 1. *)

type msg =
  | Report of { round : int; value : int; from : int }
      (** Phase-1 broadcast of the node's current estimate (0 or 1). *)
  | Proposal of { round : int; value : int option; from : int }
      (** Phase-2 proposal: [Some v] when a majority reported [v],
          [None] otherwise. *)
  | Decided of { value : int }
      (** Decision announcement; receivers decide immediately, which
          keeps halted deciders from stalling the others. *)
