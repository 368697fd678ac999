(** Closed-loop load generator for the query server.

    Spawns [clients] threads, each with its own {!Client} connection,
    issuing queries drawn round-robin from a pool of [distinct] cheap
    analysis queries. Because every request's id is its pool index,
    the full response body for a given pool slot must be
    byte-identical across clients and repetitions — the generator
    verifies this on every reply and counts violations.

    Two stopping rules. {b Fixed-request} (the default): each client
    issues [requests] calls and drains. {b Duration}: with
    [?duration], clients first run a [warmup] window whose outcomes are
    {e not} recorded (connections settle, the server cache fills), then
    a measured window of [duration] seconds; throughput comes from the
    measured window only, which is what makes short-run artifacts
    honest — [tools/validate_bench] rejects measurements shorter than
    its minimum.

    Two issue disciplines. {b Serial} ([pipeline = 1]): one resilient
    {!Client.call_line} at a time — the chaos-soak path, where typed
    error classification (timeout/connection_lost vs forbidden codes)
    matters. {b Pipelined} ([pipeline > 1]): up to that many requests
    outstanding per connection over the raw framing, replies matched
    by id, receives bounded so a dead server costs a typed
    [connection_lost] per in-flight request and a reconnect — the
    throughput path that exercises the reactor's out-of-order
    completion.

    Built to run through the {!Chaos} proxy as well as directly:
    [timeout] gives every call a deadline, and [expected_from] seeds
    the byte-identity baseline from a clean direct connection so the
    proxy cannot corrupt the reference body itself.

    Latency is recorded per request into a private {!Obs.Metrics}
    histogram; the report carries its percentile summary. After the
    run one extra [stats] request asks the server for its cache
    hit-rate, so the acceptance criterion (>90% hits on repeated
    queries) is measured server-side, not inferred. *)

val query_pool : int -> Wire.query array
(** The request corpus: [query_pool distinct] builds that many
    pairwise-distinct queries, two analyze scenarios (encoded via
    [Probcons.Scenario.to_json] — the real canonical encoder, so the
    server's cache-key canonicalization is what gets load-tested) to
    every fleet-controller run. The DST ["service"] system
    ([Dst.Service_case]) builds its requests from it too. *)

type result = {
  clients : int;
  pipeline : int;  (** Outstanding-request window per connection. *)
  requests_total : int;  (** Completed outcomes ([ok + errors]). *)
  ok : int;
  errors : int;  (** Calls that ended in any typed error. *)
  errors_by_code : (string * int) list;
      (** [errors] broken down by {!Wire.code_string}, sorted by code;
          the counts sum to [errors]. *)
  mismatches : int;  (** Byte-identity violations (warmup included). *)
  warmup_seconds : float;  (** Unrecorded warmup ([0] in fixed mode). *)
  elapsed_seconds : float;  (** The measured window. *)
  throughput_rps : float;
  latency : Obs.Metrics.hist_summary;  (** Successful calls only. *)
  server_stats : Obs.Json.t option;
      (** The server's [stats] payload, when it answered. *)
  cache_hit_rate : float option;  (** Extracted from [server_stats]. *)
}

val run :
  ?clients:int ->
  ?requests:int ->
  ?distinct:int ->
  ?timeout:float ->
  ?duration:float ->
  ?warmup:float ->
  ?pipeline:int ->
  ?expected_from:Client.target ->
  target:Client.target ->
  unit ->
  result
(** Defaults: 4 clients, 200 requests per client, 8 distinct queries,
    no per-call deadline, fixed-request mode, serial discipline,
    baseline from first reply seen.
    [duration] switches to duration mode (then [requests] is ignored
    and [warmup] — default 0.5 s — precedes the measured window).
    When [expected_from] is given, the baseline fetch happens before
    any load is issued and raises [Invalid_argument] if the clean path
    cannot answer — a broken baseline would make every mismatch count
    meaningless. The post-run [stats] probe also prefers the direct
    target. *)

val print_report : result -> unit
(** Human-readable summary on stdout. *)

val to_json : result -> Obs.Json.t
(** Schema ["probcons-loadgen/3"] — validated by [tools/validate_bench].
    Its [wire] and [wire_version] fields name {!Wire.protocol_name} and
    {!Wire.protocol_version}, the one framing clients speak. *)
