(** Resilient client for the reliability-query wire protocol.

    One socket carrying wire/3 {!Frame}s, one body per frame.
    Engineered for the fault model the chaos proxy injects, not for
    healthy sockets only:

    - {b Per-call deadlines.} Every read or write of {!call} and
      {!call_line} waits under the socket's receive or send timeout,
      never longer than the time left, so the kernel bounds every
      wait; a stalled, black-holed or half-dead server, or one that
      stops reading, yields a typed [Wire.Timeout] error instead of
      parking the caller in an unbounded [Unix.read] or [Unix.write].
      A timeout is set only when the one on the socket no longer fits
      the time left, or has expired with time left, and then to half
      the time left, so back-to-back calls with one budget make no
      [setsockopt]. A budget under 1 ms counts as spent.
    - {b Jittered exponential backoff.} Connection attempts (initial
      and reconnects) sleep 5 ms doubling per attempt, capped at
      500 ms, each draw shortened by up to half from the client's own
      seeded {!Prob.Rng} stream — deterministic per client,
      decorrelated across a fleet retrying against a recovering
      server.
    - {b Safe automatic retry.} Every wire query is pure and the
      server's reply cache re-answers byte-identically, so when a
      connection drops (reset, EOF, corrupted framing, foreign reply
      id) mid-call, the client reconnects and re-sends — at-least-once
      delivery with exactly-once-equivalent results. A timed-out call is {e not}
      retried: its budget is spent, and the poisoned connection is
      dropped so a late reply can never answer a later call.

    The raw frame transport ({!send}, {!recv}) has no retry or reply
    check. The load generator pipelines over it; the CLI's [call]
    makes one round trip with {!call_raw}; tests send deliberately
    malformed bodies through it. Not thread-safe — use one client per
    thread. *)

type target = Unix_path of string | Tcp of int
(** [Tcp port] connects to 127.0.0.1. *)

type t

val connect :
  ?retry_for:float ->
  ?seed:int ->
  ?timeout:float ->
  target ->
  t
(** [retry_for] (seconds, default 0): keep retrying refused/absent
    endpoints for that long before re-raising — lets tests connect to
    a server that is still binding its socket. [seed] (default 0)
    seeds the retry sleeps' jitter: equal seeds give equal schedules.
    [timeout] sets the default per-call budget for
    {!call}/{!call_line}; omitted, calls block until the server
    answers or the connection dies. Ignores SIGPIPE process-wide (same
    audit as the server side). *)

val send : t -> string list -> unit
(** Send the bodies, one frame each, in one batched write with
    (usually) one syscall — the pipelined send path. Blocking; raises
    on a dead connection. *)

val recv : ?timeout:float -> t -> string option
(** Next response body (a frame payload), or [None] on
    EOF/reset/corrupted framing, and on expiry when [timeout] bounds
    the wait to that many seconds — the receive for pipelining loops
    that must never hang. Without [timeout] it blocks. *)

val call_raw : t -> string -> string option
(** {!send} then {!recv}, reading even when the send fails, so a reply
    sent before the server closed (the connection-cap goodbye) still
    arrives. Blocking, no retries — the raw round trip behind the
    CLI's [call], which sends any body as given. *)

val call_line :
  ?timeout:float ->
  ?max_attempts:int ->
  t ->
  id:int ->
  string ->
  (string, Wire.error_code * string) result
(** [call_line t ~id body] sends [body] and returns the full validated
    ok response body for request [id] — the byte-identity unit the
    load generator checks. The reply is checked with
    {!Wire.response_verdict}: the whole body must be a valid response,
    but only its id and an error member are built, so the check's cost
    does not grow with the payload. An error reply is
    [Error (code, msg)] with the server's code. [timeout] (default:
    the client's) bounds the whole call including reconnects and
    retries ([max_attempts], default 3). Transport failures are always
    typed: [Timeout] when the budget expires, [Connection_lost] when
    the link died and the retry budget ran out. Only send requests
    whose [id] matches: replies are validated against it and anything
    else poisons the connection. *)

val call :
  ?timeout:float ->
  t ->
  id:int ->
  Wire.query ->
  (Obs.Json.t, Wire.error_code * string) result
(** Encode, then {!call_line}'s exchange, checking the reply with
    {!Wire.parse_response}; the body comes from the same parse that
    checked the reply's id. A dropped connection is retried as in
    {!call_line}, up to 3 attempts. Transport failures surface as
    [Error (Timeout, _)] / [Error (Connection_lost, _)]; server-sent
    errors keep their own codes. *)

val close : t -> unit

(** Multi-endpoint failover over a replicated deployment.

    One logical client across a ring of replica endpoints (index =
    replica id). Each call is tried against a {e pinned} endpoint and
    fails over on transport errors, [not_leader] redirects (following
    the reply's leader [hint] when present), and per-replica pressure
    ([overloaded]/[shutting_down]/[deadline_exceeded]) — pausing on
    {!connect}'s backoff schedule, one step per full rotation, and the
    whole dance bounded by the per-call deadline plus a cap of
    [6 * endpoints] attempts.

    Retrying writes is safe: a [Scenario_put] retried onto a new
    leader re-encodes to the same canonical bytes, which are the
    replicated command id, and replicas apply each command id at most
    once. Not thread-safe — one [Multi.t] per thread. *)
module Multi : sig
  type t

  val create : ?timeout:float -> target list -> t
  (** [timeout] is the default per-call budget. Raises
      [Invalid_argument] on an empty endpoint list. Connections are
      opened lazily on first call. *)

  val current : t -> int
  (** Index of the endpoint calls are currently pinned to. *)

  val call :
    ?timeout:float ->
    t ->
    id:int ->
    Wire.query ->
    (Obs.Json.t, Wire.error_code * string) result
  (** Like {!Client.call}, across the deployment: returns the first
      replica answer (success or semantic error); transport-level
      outcomes are [Error (Timeout, _)] when the budget expires and
      the last typed failure when the attempt cap runs out (e.g.
      [Not_leader] while the deployment is leaderless,
      [Connection_lost] when nothing is reachable). *)

  val close : t -> unit
end
