(** Sharded metrics registry: counters, gauges, log-scale histograms.

    Design goals, in order:

    - {b Domain-safe}: every mutation goes to one of a fixed set of
      per-domain shards chosen by [Domain.self ()], each an [Atomic.t].
      Worker domains spawned by [Parallel.Pool] record concurrently
      with no locks on the hot path; shards are merged only at
      {!snapshot} time.
    - {b Allocation-free hot path}: {!incr}, {!add}, {!set} and
      {!observe} allocate nothing — they are a flag load, a few float
      or integer operations, and one atomic read-modify-write.
    - {b Free when off}: every mutation first checks the registry's
      enabled flag (a single [Atomic.get]); with no sink attached the
      instrumented hot loops pay one predictable branch.

    Registration ({!counter} / {!gauge} / {!histogram}) is the cold
    path: it takes a mutex and is idempotent — re-registering the same
    [(family, name)] with the same kind returns the existing metric, so
    modules can register at initialization time. *)

type t
(** A registry. *)

val create : ?enabled:bool -> unit -> t
(** Fresh registry, disabled by default. *)

val set_enabled : bool -> unit
(** Switch the process-global registry, which every [?registry] below
    defaults to and every library-level metric lives in. It is disabled
    until [set_enabled true]; [bin/main.exe --metrics FILE] switches it
    on. *)

val enabled : unit -> bool
(** Whether the process-global registry is on. *)

val reset : unit -> unit
(** Zero every shard of every metric of the process-global registry
    (registrations are kept). *)

(** {1 Instruments} *)

type counter

val counter : ?registry:t -> family:string -> string -> counter
(** Monotone event count. [family] groups related metrics in snapshots
    (e.g. ["engine"], ["protocol"], ["analysis"]). *)

val incr : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : ?registry:t -> family:string -> string -> gauge
(** Point-in-time level (queue depth, worker count). Each domain shard
    keeps its last written value; because last-writes from different
    domains cannot be ordered, a snapshot reports the {e maximum} over
    shards — a high-water mark. *)

val set : gauge -> int -> unit

type histogram

val histogram : ?registry:t -> family:string -> string -> histogram
(** Log-scale histogram over positive floats: buckets at quarter
    powers of two (ratio [2^0.25] between bucket bounds), covering
    [2^-30 .. 2^30] with under/overflow clamped to the end buckets and
    non-positive values in a dedicated zero bucket. Summaries computed
    from buckets (percentiles, min, max, mean) carry at most ~9%
    relative error. *)

val observe : histogram -> float -> unit

val live : histogram -> bool
(** Whether observations are currently being recorded — lets callers
    (e.g. {!Span}) skip reading the clock when the registry is off. *)

(** {1 Snapshots} *)

type hist_summary = {
  count : int;
  sum : float;  (** Bucket-resolution estimate, [Σ countᵢ·repᵢ]. *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type value = Counter of int | Gauge of int | Histogram of hist_summary

type sample = { family : string; name : string; value : value }

type snapshot = sample list
(** Sorted by [(family, name)]; deterministic for a fixed registry. *)

val snapshot : ?registry:t -> unit -> snapshot
(** Merge all shards of all registered metrics. Registered-but-unused
    metrics appear with zero values, so a snapshot always exposes every
    metric family linked into the program. *)

val find : snapshot -> family:string -> name:string -> value option

(** {1 JSON encoding} *)

val of_jsonl : string -> (snapshot, string) result
(** Parse what {!write_jsonl} writes. *)

val write_jsonl : path:string -> snapshot -> unit
(** Write the snapshot to [path] (truncating) as JSON lines: one sample
    object per line. *)
