(** Deterministic chunked map-reduce over index ranges.

    An index space [0..total-1] is split into contiguous chunks whose
    boundaries depend only on [total] — never on how many domains
    execute them. Each chunk is evaluated independently (possibly in
    parallel via {!Pool}), and the per-chunk partial results are
    reduced {e in chunk order} with
    Kahan-compensated summation. Consequently every result below is
    bit-identical across runs and across domain counts: [~domains:1]
    and [~domains:64] produce the same floats. *)

val default_chunks : int
(** The chunk count (64): enough granularity to load-balance any
    plausible lane count without changing per-chunk float sums. *)

val ranges : total:int -> unit -> (int * int) array
(** [ranges ~total ()] is the deterministic partition of [0..total-1]
    into [min default_chunks total] contiguous [(lo, hi)] half-open
    ranges of near-equal size, in ascending order. Empty when
    [total <= 0]. *)

val sum : ?domains:int -> total:int -> (lo:int -> hi:int -> float) -> float
(** Kahan-reduced sum of per-chunk partial sums, in chunk order. *)

val sum3 :
  ?domains:int ->
  total:int ->
  (chunk:int -> lo:int -> hi:int -> float * float * float) ->
  float * float * float
(** Component-wise {!sum} for triples (the analysis engines accumulate
    P(safe), P(live) and P(safe∧live) in one pass). *)

val count3 :
  ?domains:int ->
  total:int ->
  (chunk:int -> lo:int -> hi:int -> int * int * int) ->
  int * int * int
(** Component-wise integer sum for hit counters (Monte Carlo); exact,
    hence trivially order-independent. *)
