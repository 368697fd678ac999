(** Bounded LRU memo for rendered response payloads.

    Hot queries cost one hash lookup instead of an O(2^N) re-analysis.
    Keys are canonical request encodings ({!Wire.canonical_key}), values
    are rendered JSON payload strings — caching the {e bytes} is what
    preserves the repo's determinism guarantee: a hit replays exactly
    what a miss computed.

    One thread owns a cache: in {!Server}, the reactor, which looks up
    hits and admits the payloads the worker lanes computed as it
    delivers their replies. Nothing here locks. Two misses on the same
    key both compute and the second {!add} only refreshes recency —
    admission is idempotent because values for one key are identical
    by construction. *)

type t

val create : ?registry:Obs.Metrics.t -> capacity:int -> unit -> t
(** [capacity <= 0] disables the cache (every lookup misses, nothing is
    stored). Hit/miss/eviction counters and an entries gauge register
    in [registry] (default: the global registry) under the ["service"]
    family. *)

val capacity : t -> int

val find : t -> string -> string option
(** The payload cached under the key, promoted to most-recently-used. *)

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
