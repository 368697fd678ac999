(** Poisson-binomial distribution: number of successes among independent
    but non-identical Bernoulli trials.

    This is the workhorse of heterogeneous-fleet analysis: with per-node
    failure probabilities [p_0 .. p_{n-1}], [pmf probs] gives the exact
    distribution of the number of failed nodes in O(n^2), so count-based
    safety/liveness predicates (Theorems 3.1 and 3.2 of the paper) never
    need the 2^n enumeration. *)

val pmf : float array -> float array
(** [pmf probs] has length [n+1]; element [k] is P(exactly k
    successes). Exact dynamic program (convolution). *)

val cdf_le : float array -> int -> float
(** P(successes <= k). *)
