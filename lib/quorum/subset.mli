(** Bitmask subsets of a small universe [0..n-1].

    Failure configurations and quorums over clusters of up to 62 nodes
    are represented as [int] bitmasks; these helpers keep the
    enumeration engines branch-light. *)

type t = int
(** Bit [u] set iff element [u] is in the subset. *)

val empty : t
val full : int -> t
val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val cardinal : t -> int
val inter : t -> t -> t
val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val of_list : int list -> t
val to_list : t -> int list
val complement : int -> t -> t
(** [complement n s] relative to universe size [n]. *)

val max_enumeration : int
(** Largest universe size the exhaustive iterators accept (24). *)

val iter_subsets : int -> (t -> unit) -> unit
(** Apply to all [2^n] subsets of [0..n-1]. Raises [Invalid_argument]
    when [n > 24] — beyond that use sampling. *)

val iter_subsets_range : int -> lo:t -> hi:t -> (t -> unit) -> unit
(** [iter_subsets_range n ~lo ~hi f] applies [f] to the bitmasks
    [lo, lo+1, ..., hi-1], in order — the contiguous slice of
    {!iter_subsets}' sequence that chunked parallel enumeration hands
    to one worker. Requires [0 <= lo <= hi <= 2^n]. Concatenating the
    ranges of any partition of [0, 2^n) reproduces {!iter_subsets}
    exactly. *)

val iter_ksubsets : int -> int -> (t -> unit) -> unit
(** Apply to all size-[k] subsets of [0..n-1], in Gosper order. *)

val fold_subsets : int -> init:'a -> f:('a -> t -> 'a) -> 'a
