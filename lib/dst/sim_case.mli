(** In-process simulator systems for the DST harness: the Raft, PBFT,
    Ben-Or and Rabia clusters on {!Dessim.Engine}, driven by generated
    fault plans ({!Dessim.Fault_injector}) and operation sequences,
    checked against the protocol checkers' invariants.

    A case is fully deterministic: the cluster seed, the fault plan
    and the op trace reproduce the run bit-for-bit, so shrinking can
    re-execute candidates cheaply and a committed artifact replays
    byte-identically forever.

    Faults are sampled {e within} each protocol's tolerance (at most
    [(n-1)/2] crash faults for the CFT protocols, [(n-1)/3] total for
    PBFT), so the invariants are the protocol's actual guarantees:
    agreement/validity always, liveness whenever enough correct nodes
    remain. A violation is a bug — in the protocol implementation, the
    simulator, or the harness — never an expected threshold breach. *)

type protocol = Raft | Pbft | Benor | Rabia

type fault_kind =
  | Crash
  | Crash_restart of float  (** back_at *)
  | Byzantine
  | Process of { fail_rate : float; recover_rate : float }
      (** Process-driven fail/recover schedule (Raft/Rabia only): a
          two-state on/off Markov process with the given per-time-unit
          rates, realized as concrete crash/restart events sampled from
          [Rng.of_pair (cluster_seed, node)] over the run's horizon via
          {!Faultmodel.Failure_process.sample_downtime} — deterministic,
          replayable and shrinkable like any other fault. A node whose
          sampled schedule closes every outage by the run's midpoint
          counts toward the liveness majority: recovery-dependent
          liveness is asserted, not excused. *)

type fault = { node : int; kind : fault_kind; at : float }

type t = {
  protocol : protocol;
  n : int;
  cluster_seed : int;
  drop_probability : float;  (** Per-message network drop rate. *)
  faults : fault list;
  ops : int list;
      (** Raft/PBFT/Rabia: client commands (liveness expects each
          committed everywhere correct). Ben-Or: the [n] initial
          values (0/1), not shrinkable. *)
  horizon : float;  (** Virtual-time bound for the run. *)
}

val system_name : protocol -> string
(** ["sim-raft" | "sim-pbft" | "sim-benor" | "sim-rabia"] — the
    artifact tag. *)

val recovered_nodes : t -> int list
(** Process-faulted nodes whose sampled downtime closes every outage
    by [horizon /. 2] — the nodes a run adds to the liveness
    obligation set. Exposed so tests can assert that a pinned repro's
    liveness really does depend on recovery. *)

val system : protocol -> t Harness.system
