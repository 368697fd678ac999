(** Bounded LRU memo for rendered response payloads.

    Hot queries cost one hash lookup instead of an O(2^N) re-analysis.
    Keys are canonical request encodings ({!Wire.canonical_key}), values
    are rendered JSON payload strings — caching the {e bytes} is what
    preserves the repo's determinism guarantee: a hit replays exactly
    what a miss computed.

    A hit returns an {!entry} rather than the raw string: alongside the
    payload, each entry memoizes the most recent {e fully rendered}
    reply (the frame header and envelope around the payload, which
    depend only on the request id). A client
    that reuses its ids, as the load generator and any pipelining
    client naturally do, therefore gets its whole reply as one
    preassembled slice: the reactor writes it with a single syscall and
    zero per-request assembly. An id change re-renders once and
    replaces the memo.

    All map operations are domain-safe (one mutex; the critical
    sections are pointer swaps). Two concurrent misses on the same key
    both compute and the second {!add} wins harmlessly — admission is
    idempotent because values for one key are identical by
    construction. The rendered memo is {e not} locked: it must only
    be touched from the single reactor thread (the only writer of
    replies). *)

type t

type entry

val create : ?registry:Obs.Metrics.t -> capacity:int -> unit -> t
(** [capacity <= 0] disables the cache (every lookup misses, nothing is
    stored). Hit/miss/eviction counters and an entries gauge register
    in [registry] (default: the global registry) under the ["service"]
    family. *)

val capacity : t -> int

val find : t -> string -> entry option
(** Promotes the entry to most-recently-used on a hit. *)

val payload : entry -> string
(** The rendered JSON payload this entry caches. *)

val rendered : entry -> id:int -> render:(unit -> string) -> string
(** The full reply frame for this payload and request id: the memoized
    string when [id] matches the last request, else [render ()],
    memoized. Reactor-thread only. *)

val add : t -> string -> string -> unit
(** Insert a payload, evicting the least-recently-used entry when full.
    Re-adding an existing key refreshes its recency but keeps the first
    value. *)

val count_hit : t -> unit
(** Record a hit that bypassed {!find}: the server's raw-request-bytes
    fast path replays a reply without a key lookup, but the hit-rate
    the [stats] query reports must still count it. *)

val length : t -> int

val stats : t -> int * int * int
(** [(hits, misses, evictions)] since creation — counted locally so
    they are available even when the metrics registry is disabled. *)
