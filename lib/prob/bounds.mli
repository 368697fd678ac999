(** Classical tail bounds, for comparison against exact computation.

    The paper notes that once quorums must {e intersect}, "traditional
    tools like Chernoff bounds no longer apply" — and even where they
    do apply, they are loose in exactly the few-nodes / few-nines
    regime consensus deployments live in. These bounds make that
    looseness measurable against the exact binomial tail. *)

type comparison = {
  exact : float;
  chernoff : float;
      (** The tightest exponential (Chernoff–Cramér) bound:
          [exp (-n KL(k/n || p))] for [k/n > p], else 1. *)
  hoeffding : float;
      (** Hoeffding's bound: [exp (-2 n (k/n - p)^2)] for [k/n > p],
          else 1. *)
  chernoff_ratio : float;  (** chernoff / exact — 1.0 would be tight. *)
  hoeffding_ratio : float;
}

val compare_tail : n:int -> p:float -> k:int -> comparison
(** How many extra "nines of pessimism" the bounds cost relative to
    the exact tail P(X >= k). *)
