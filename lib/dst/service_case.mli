(** The live service stack as a DST system: a reactor {!Service.Server}
    behind a {!Service.Chaos} fault-injecting proxy, driven by a
    resilient {!Service.Client} issuing a generated op sequence.

    A case is a chaos plan plus an op trace — each op an index into a
    small pool of distinct analyze queries ({!Service.Loadgen.query_pool}),
    issued serially with the op's pool slot as its request id (the
    PR-5 collision surface). The invariants are the service's
    resilience contract:

    - ["reply_integrity"]: every [Ok] is byte-identical to the clean
      direct-path reply for the same query, and no server error reply
      answers a query but the pressure codes among
      {!Service.Soak.allowed_codes};
    - ["typed_errors_only"]: of the client's own typed errors, only
      {!Service.Soak.allowed_codes} may surface;
    - ["call_outlives_deadline"]: no call returns later than its
      deadline plus a fixed grace;
    - ["leak_free_drain"]: after the proxy tears every connection
      down, the server's connection table returns to zero
      ({!Service.Soak.drain}).

    A replay re-runs the same plan and op trace: the proxy's fault
    draws depend only on [(plan.seed, connection index, direction)],
    and ops are issued serially. It is not bit-for-bit, because the
    stack runs on the wall clock: which calls time out and reconnect,
    and so how many connections a run opens, depends on timing. The
    invariant outcome reproduces; timeouts, reconnects and proxy
    counters can differ. With [seeded_bug] set the
    case re-enables the historical [id: 0] placeholder
    ({!Service.Wire.seeded_bug_id0}) so a garbage-injection fault can
    answer a healthy request — the violation the acceptance test
    shrinks to a ≤3-fault, ≤10-op artifact. *)

type t = {
  deadline : float;  (** Per-call budget, seconds. *)
  seeded_bug : bool;  (** Re-introduce the PR-5 [id: 0] placeholder. *)
  distinct : int;  (** Query-pool size; ops index into it. *)
  plan : Service.Chaos.plan;
  ops : int list;  (** Pool slots, issued serially with [id = slot]. *)
}

val system_name : string
(** ["service"]. *)

val system : ?seeded_bug:bool -> unit -> t Harness.system
(** [seeded_bug] (default false) parameterizes the {e generator} only;
    decoding an artifact always reconstructs the case's own recorded
    value. *)
