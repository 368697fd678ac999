(** Upright-style dual-threshold reliability model.

    The paper's §2(4): faults cannot simply be treated as crashes or
    Byzantine — most faults are crashes, a small fraction (mercurial
    cores, TEE compromises) are Byzantine, and classical protocols
    force an all-or-nothing choice. Upright (SOSP'09) splits the
    budget: the system stays {e live} with up to [u] failures of any
    kind and {e safe} as long as at most [r] of them are Byzantine
    ([r <= u], [n >= 2u + r + 1]).

    Under the probabilistic model this is exactly the middle ground the
    paper asks for: with per-node crash and Byzantine probabilities
    (e.g. 4% AFR crashes vs 0.01% corruption-execution errors), the
    dual-threshold system buys nearly-CFT liveness at far lower cost
    than full BFT. *)

type params = {
  n : int;
  u : int;  (** Total failures tolerated for liveness. *)
  r : int;  (** Byzantine failures tolerated for safety. *)
}

val make : n:int -> u:int -> r:int -> params
(** Validates [0 <= r <= u] and [n >= 2u + r + 1]. *)

val max_params : n:int -> r:int -> params
(** Largest liveness budget for a given Byzantine budget:
    [u = (n - r - 1) / 2]. *)

val protocol : params -> Protocol.t
(** Safe iff [|Byz| <= r]; live iff [|Byz| <= r] and
    [|Byz| + |Crashed| <= u]. *)

val compare_with_classics : Faultmodel.Fleet.t -> (string * Analysis.result) list
(** For a fleet with mixed crash/Byzantine probabilities: analyze Raft
    (CFT — Byzantine faults void safety), PBFT (full BFT — every fault
    spends the Byzantine budget) and Upright with [r = 1] on the same
    cluster size. The comparison behind "most nodes fail by crashing
    but from time to time exhibit malicious behaviour". *)
