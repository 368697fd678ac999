(** Deterministic, splittable pseudo-random number generator.

    SplitMix64: every simulation, Monte-Carlo estimate and sampled fault
    schedule in this toolkit is reproducible from a single [int] seed.
    The generator is a mutable stream; [split] derives an independent
    stream so concurrent components (e.g. per-node fault injectors) do
    not perturb each other's sequences when reordered. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val of_pair : int -> int -> t
(** [of_pair seed index] derives the [index]-th independent stream of
    [seed] deterministically and in O(1) — the streams chunked parallel
    Monte Carlo assigns to chunks, so estimates depend only on
    [(seed, chunking)], never on domain count or scheduling. *)

val split : t -> t
(** Derive a statistically independent generator; advances [t] once. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); [rate] must be positive. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct ints from
    [0..n-1], in random order. Raises [Invalid_argument] if [k > n]. *)
