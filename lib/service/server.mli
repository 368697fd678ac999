(** The long-running reliability-query server: a single-threaded
    [select] reactor in front of domain worker lanes, optionally
    hosting one more I/O {e plane} on its loop.

    Architecture (one box per module):

    {v
      reactor thread (select loop: every socket, the cache, the tallies)
        ├─ accepts, reads, decodes wire/3 frames
        ├─ inline answers: errors, ping, stats, cache hits
        ├─ small analyses (count DP within the loop's cell budget)
        ├─ plane queries and the plane's step (a replica's Raft)
        └─ cache misses ── bounded queue ── worker lanes
                                (Parallel.Pool domains) ── Router
                                    └─ replies + tallies ── wakeup pipe ──▶ reactor
    v}

    - {b Reactor}: one thread owns all sockets. Listeners and
      connections are non-blocking; a [select] loop accepts, reads,
      and writes. Each connection is a small state machine: bytes
      stream through its incremental {!Frame} decoder, and a framing
      violation is answered [parse_error] and closes the connection.
      There are {e no reader
      threads} — a thousand idle connections cost a thousand fds, not
      a thousand stacks. Every reply queued during an iteration is
      written at the end of that iteration, so none waits for another
      [select].
    - {b Inline fast path}: parse errors, [ping], [stats] and reply
      cache hits are answered directly on the reactor thread, so the
      clean cached path never crosses a thread boundary. So is a cache
      miss for an [analyze] whose default strategy is one count-DP
      pass over at most what is left of the loop's per-iteration
      budget of 512 cells ({!Probcons.Registry.count_dp_cells}): it
      costs less than the lane round trip it saves. Past the budget,
      and for every other miss, the query goes to the worker lanes.
      [stats] counts the loop's answers as [requests.on_loop].
      A hit's reply is memoized per exact request body, so a repeated
      request is replayed without being parsed, and small replies are
      coalesced so one syscall can carry many pipelined responses.
    - {b Plane}: {!start} may host a {!plane} — a replica's Raft — on
      the same loop. Its sockets join every [select], its timeout
      bounds the wait, its step runs after each [select], and the
      queries it owns are answered on the loop thread, never queued
      for a lane.
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
      parallelism degrades to sequential per lane. A lane runs
      {!Router.handle} and renders the reply bytes through the helper
      the loop's own answers use, then hands them, with what they
      count for, to the reactor through a mutex-protected completion
      queue plus a wakeup pipe ({!Nonblock.wake}); lanes never touch
      sockets, the cache or the tallies.
    - {b Cache}: the reactor alone owns the {!Cache} and the [stats]
      tallies. As it delivers a lane's, the loop's or the plane's
      reply, even to a connection that has died, it counts the reply
      and admits a cacheable answer's payload by canonical key;
      identical requests get byte-identical responses whether computed
      or replayed.
    - {b Shutdown}: {!stop} (or SIGINT/SIGTERM under {!run}) closes
      listeners, drains queued work through the lanes, answers fresh
      requests [shutting_down], stops the plane, then flushes every
      connection's pending replies (bounded) and closes them — a
      graceful drain. A reply that arrives after {!stop} is dropped.

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

type handler =
  Wire.query -> reply:((Obs.Json.t, reply_error) result -> unit) -> unit
(** How a {!plane} answers the queries it owns: by calling [reply], at
    once or later. The first call counts and later ones are ignored.
    [handle_seconds] runs from the call to the reply. *)

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
}

val default_config : config
(** No listeners configured (callers must set at least one);
    [workers = Parallel.Pool.default ()], queue depth 64, cache 1024
    entries, 5 s deadline, 300 s idle timeout, 1024 connections,
    pipeline depth 128. *)

type plane = {
  fds : unit -> Unix.file_descr list * Unix.file_descr list;
      (** The sockets to add to the next [select]: read set, write set. *)
  timeout : unit -> float;
      (** Seconds until the plane's next deadline, [0.] when one is
          due, negative for none. The loop waits no longer. *)
  step : readable:Unix.file_descr list -> unit;
      (** Runs after every [select], with what it reported readable,
          after client requests are read. *)
  owns : Wire.query -> bool;
      (** The queries {!field-handle} answers on the loop thread. *)
  handle : handler;
      (** Runs on the loop thread and must call [reply] only there, at
          once or from a later {!field-step} or {!field-stop}. The
          reply goes straight onto its connection. *)
  stop : reply_error -> unit;
      (** Runs once on the loop thread, before connections close:
          answer every query still held with the error. Nothing of the
          plane runs afterwards. *)
}
(** A second I/O plane hosted on the reactor's loop thread — a
    replica's Raft and its sockets. During {!stop}'s drain the loop
    answers owned queries [shutting_down]. A step that raises stops
    the plane with an [internal] error, then the loop closes its
    listeners, flushes and closes every connection and exits,
    re-raising. *)

type t

val start : ?plane:plane -> config -> t
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
