(** Deployment equivalence search (the paper's E3 claim).

    "One can run Raft on nine less-reliable nodes that suffer an 8%
    failure rate and obtain the same 99.97% safety and liveness" as
    three nodes at 1%. This module finds such equivalences: the
    smallest cluster of nodes at a given fault probability whose
    safe-and-live probability reaches a target. *)

type equivalent = {
  n : int;
  p : float;
  p_safe_live : float;
}

val raft_reliability : n:int -> p:float -> float
(** P(safe and live) of standard Raft on [n] uniform-[p] nodes. *)

val min_raft_cluster :
  target:float -> p:float -> ?tolerance:float -> unit -> equivalent option
(** Smallest [n <= 99] whose Raft reliability reaches
    [target - tolerance]. Only odd sizes are considered: an even-sized
    majority cluster is never better than the odd cluster one node
    smaller. [tolerance] (default 0) expresses "equal at the quoted
    precision": the paper's E3 claim — 9 nodes at 8% match 3 nodes at
    1% — holds at its two-decimal rounding (99.9686% vs 99.9702%), i.e.
    with a tolerance of half a unit in the last printed digit. *)

val min_cluster_for :
  family:(int -> Protocol.t * Faultmodel.Fleet.t) ->
  target:float ->
  unit ->
  equivalent option
(** Generic search over any indexed family of deployments of at most
    99 nodes; [p] in the
    result echoes the family index as a float-free marker (set to
    [nan]). *)
