(** Rabia-style randomized state machine replication — wire messages.

    Rabia (SOSP'21, cited by the paper as the modern "beyond quorums"
    design) replicates a log without leaders or intersecting quorums:
    per slot, replicas exchange proposals, and a randomized binary
    agreement decides whether the slot commits the majority proposal or
    a null operation (retrying the commands later). This is a faithful
    simplification: proposal exchange + per-slot Ben-Or with a shared
    coin + decision dissemination. *)

type msg =
  | Proposal of { slot : int; command : int; from : int }
      (** The sender's candidate command for the slot. *)
  | Report of { slot : int; round : int; value : int; from : int }
      (** Binary-agreement phase 1 (value 0 = commit null, 1 = commit
          the majority proposal). *)
  | Vote of { slot : int; round : int; value : int option; from : int }
      (** Binary-agreement phase 2. *)
  | Decision of { slot : int; value : int; command : int option; from : int }
      (** Decided outcome; carries the committed command when the
          outcome is 1 so laggards can adopt it. *)
