(** Correlated failure models.

    The paper's §2(3): faults cluster around software rollouts, shared
    racks, and platform-wide vulnerabilities, so independence is an
    optimistic assumption. These models sample whole failure
    configurations; the analysis engine estimates reliability under
    them by Monte Carlo (exact enumeration no longer factorizes). *)

type domain_spec = {
  members : int list;  (** Node ids sharing the fault domain. *)
  shock_probability : float;
      (** Probability the domain-wide event (rollout bug, rack power
          loss, TEE vulnerability) fires during the mission. *)
  conditional_failure : float;
      (** Per-member failure probability given the shock fired; [1.]
          models a deterministic wipe-out. *)
  byzantine_shock : bool;
      (** Whether the shock compromises members (Byzantine — e.g. a
          TEE vulnerability) rather than crashing them (rack power). *)
}

type t =
  | Independent
      (** Each node fails independently per its own curve — §3's
          setting. *)
  | Domains of domain_spec list
      (** Marshall–Olkin-style common shocks layered on top of the
          nodes' independent curves. A node fails if its own fault
          fires, or any covering domain's shock hits it. *)
  | Mixture of (float * float) list
      (** Environment mixture: with weight [w_i] the whole fleet's
          fault probabilities are multiplied by [factor_i] (clamped).
          Captures "bad weeks": rollout periods, workload surges. *)

type kind = Ok | Crash | Byz

val sample_kinds : t -> Fleet.t -> Prob.Rng.t -> kind array
(** One failure configuration, distinguishing fault kinds: a node's own fault
    is Byzantine with the node's [byz_fraction]; a domain shock's kind
    follows its [byzantine_shock] flag. When several causes hit one
    node, Byzantine wins (it subsumes a crash). *)

val marginal_probability : t -> Fleet.t -> int -> float
(** Exact marginal fault probability of one node under the model. *)

val pairwise_correlation : t -> Fleet.t -> Prob.Rng.t -> int -> int -> float
(** Sampled Pearson correlation between two nodes' fault indicators
    over 20,000 draws — 0 under [Independent], positive under
    shocks. *)
