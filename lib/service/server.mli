(** The long-running reliability-query server: a single-threaded
    [select] reactor in front of domain worker lanes.

    Architecture (one box per module):

    {v
      reactor thread (select loop, owns every socket)
        ├─ accepts, reads, decodes wire/3 frames
        ├─ inline answers: errors, ping, stats, cache hits
        └─ cache misses ── bounded queue ── worker lanes
                                (Parallel.Pool domains) ── Router
                                    └─ completions ── wakeup pipe ──▶ reactor
    v}

    - {b Reactor}: one thread owns all sockets. Listeners and
      connections are non-blocking; a [select] loop accepts, reads,
      and writes. Each connection is a small state machine: bytes
      stream through its incremental {!Frame} decoder, and a framing
      violation is answered [parse_error] and closes the connection.
      There are {e no reader
      threads} — a thousand idle connections cost a thousand fds, not
      a thousand stacks.
    - {b Inline fast path}: parse errors, [ping], [stats] and reply
      cache hits are answered directly on the reactor thread. Only
      cache misses — actual analyses — are dispatched to the worker
      lanes, so the clean cached path never crosses a thread boundary.
      Replies are written from preassembled cached bytes (see
      {!Cache.rendered}) and small replies are coalesced so one
      syscall can carry many pipelined responses.
    - {b Pipelining}: a connection may keep up to [max_pipeline]
      requests outstanding; workers complete out of order and clients
      match replies by id. Past the cap — or past a bounded
      reply-backlog high-watermark — the reactor simply stops
      selecting that connection for reads until it drains:
      backpressure by not reading, counted as a write stall.
    - {b Backpressure}: the bounded request queue is unchanged. When
      it is full the reactor replies [overloaded] immediately; queued
      requests that outlive the deadline are answered
      [deadline_exceeded] without being computed.
    - {b Self-protection}: a connection silent longer than
      [idle_timeout_seconds] (with nothing in flight) is closed.
      Accepts beyond [max_connections] are answered with a single
      [overloaded] error frame and closed. SIGPIPE is ignored
      process-wide.
    - {b Workers}: [workers] lanes hosted on one {!Parallel.Pool.map}
      call, so each lane is a real domain while nested analysis
      parallelism degrades to sequential per lane. Lanes never touch
      sockets: they compute, render, and push completed reply bytes to
      the reactor through a mutex-protected queue plus a wakeup pipe.
    - {b Cache}: replies for cacheable queries are memoized by
      canonical key ({!Cache}); identical requests get byte-identical
      responses whether computed or replayed.
    - {b Shutdown}: {!stop} (or SIGINT/SIGTERM under {!run}) closes
      listeners, drains queued work through the lanes, answers fresh
      requests [shutting_down], then flushes every connection's
      pending replies (bounded) and closes them — a graceful drain.

    Everything is instrumented under the ["service"] metrics family,
    including the reactor itself: loop iterations, a ready-fd
    histogram per wakeup, per-dispatch pipeline-depth histogram, and a
    write-backpressure stall counter — all surfaced in [stats] and
    (summarized) in [ping] replies. *)

type reply_error = {
  code : Wire.error_code;
  msg : string;
  hint : int option;
      (** Optional [hint] field on the error object — the
          believed-leader replica id on [not_leader] replies. *)
}

type handler = Wire.query -> (Obs.Json.t, reply_error) result
(** What the worker lanes run for queries that miss the fast paths.
    Must be thread-safe (lanes are domains) and deterministic for
    cacheable queries — its [Ok] payloads are cached and replayed
    byte-identically. *)

val router_handler : handler
(** The default: {!Router.handle} with no redirect hints. *)

type config = {
  socket_path : string option;  (** Unix-domain listener path. *)
  tcp_port : int option;  (** TCP listener on 127.0.0.1. *)
  workers : int;  (** Worker lanes; clamped to [1 ..]. *)
  queue_depth : int;  (** Bounded queue capacity; clamped to [1 ..]. *)
  cache_capacity : int;  (** LRU entries; [0] disables caching. *)
  deadline_seconds : float;  (** Per-request queue deadline. *)
  idle_timeout_seconds : float;
      (** Close a connection after this long with no readable bytes
          (and nothing in flight); [<= 0] disables the timeout. *)
  max_connections : int;
      (** Live-connection cap; clamped to [1 ..]. Accepts beyond it are
          answered [overloaded] and closed. *)
  max_pipeline : int;
      (** Outstanding-request cap per connection; clamped to [1 ..].
          At the cap the reactor stops reading the connection until
          replies drain — backpressure, not an error. *)
  handler : handler;
      (** Worker dispatch ({!router_handler} by default). The replica
          runtime ({!Replica.Node}) substitutes a handler that
          sequences state-mutating queries through the Raft log and
          answers replica-plane queries; everything else should
          delegate to {!router_handler}. *)
}

val default_config : config
(** No listeners configured (callers must set at least one);
    [workers = Parallel.Pool.default ()], queue depth 64, cache 1024
    entries, 5 s deadline, 300 s idle timeout, 1024 connections,
    pipeline depth 128. *)

type t

val start : config -> t
(** Bind listeners, spawn the reactor thread and worker lanes, and
    return immediately. Raises [Invalid_argument] when no listener is
    configured; [Unix.Unix_error] when binding fails. *)

val stop : t -> unit
(** Graceful drain as described above. Idempotent; blocks until the
    reactor thread and every worker domain has joined. *)

val connection_count : t -> int
(** Live connections in the reactor's connection table. The chaos
    soak's leak check: after clients disconnect this must return to
    zero. *)

val wait_for_signal : unit -> unit
(** Block until SIGINT or SIGTERM arrives. The handlers are installed
    for the duration and the previous ones restored on return — the
    one foreground wait of [serve], [replica-node] and [replicate]. *)

val run : config -> unit
(** [start], then {!wait_for_signal}, then [stop]. *)
