(** The reliability-query wire protocol: versioned JSON bodies over a
    byte stream (Unix-domain or TCP socket), each body carried in one
    {!Frame} (magic, version byte, u32 length).

    A request body is

    {v {"v": 3, "id": 7, "kind": "analyze", "params": {...}} v}

    and a response body is either

    {v {"v": 3, "id": 7, "ok": <payload>} v}
    {v {"v": 3, "id": 7, "error": {"code": "overloaded", "msg": "..."}} v}

    [id] is an opaque client-chosen integer echoed back verbatim
    (default 0 when omitted). [v] must be {!protocol_version}: a body
    stamped with any other version is answered [unsupported_version].
    Clients discover the server's version with [probcons version] or
    the [stats] request kind. Responses to identical requests are
    byte-identical — the toolkit's determinism guarantee extends across
    the wire — which is what makes the reply cache a pure win.

    Framing makes pipelining explicit: a connection may keep many
    frames outstanding and the server answers out of order, matching
    replies by [id].

    [analyze] params are a full {!Probcons.Scenario} (protocol name
    dispatched through {!Probcons.Registry}, optional [byz_fraction],
    [quorums], [stakes], [at], [seed]), so the server answers every
    registered model; the [n]/[p] shorthand parses to the same query,
    cache entry and payload bytes as the equivalent one-group [mix].

    Parsing is total: any byte string maps to a request or to a
    structured {!error_code}; the JSON layer bounds nesting depth, and
    {!Frame.max_payload_bytes} bounds the body length the server will
    read. *)

type system =
  | Majority of int
  | Threshold of { n : int; k : int }
  | Wheel of int
  | Grid of { rows : int; cols : int }

type probs = Uniform of float | Per_node of float list

(** Fleet-controller run parameters in normal form: [nodes] is
    required on the wire and at most 256 (each tick counts the fleet
    in O(nodes^2)), [ticks] at most 128; [ticks], [seed] and
    [target_nines] default to
    the CLI's defaults (26, 42, 3.0) and an explicit majority [quorum]
    normalizes to [None], so shorthand and spelled-out requests share
    one cache entry. [dynamic] (default [false]) switches the run to
    Markov ground-truth degradation processes and the
    uncertainty-weighted swap policy; it is encoded only when [true],
    so pre-dynamic requests keep their exact cache keys. *)
type fleet_params = {
  nodes : int;
  ticks : int;
  seed : int;
  quorum : int option;
  target_nines : float;
  dynamic : bool;
}

(** A parsed, validated query in normal form. [Analyze] carries a full
    deployment scenario; [groups] elsewhere is the heterogeneous-fleet
    normal form [(count, fault_probability) list]. The [n]/[p]
    shorthand in wire params parses to a single group, so semantically
    identical requests share one cache entry. *)
type query =
  | Analyze of { scenario : Probcons.Scenario.t }
  | Availability of { system : system; probs : probs }
  | Committee of { target_nines : float; groups : (int * float) list }
  | Quorum_size of { target_live_nines : float; groups : (int * float) list }
  | Markov of { n : int; quorum : int option; afr : float; mttr_hours : float }
  | Plan of { target_nines : float; groups : (int * float) list }
  | Fleet_recommend of fleet_params
      (** Run the seeded fleet-controller closed loop and return its
          canonical payload — the exact bytes [probcons fleet --json]
          prints for the same parameters. Deterministic, so cacheable
          like any other compute query. *)
  | Fleet_ingest of fleet_params
      (** Telemetry-and-refit summary of the same run (observation
          counts, final liveness and expected failures) without the
          recommendation stream. *)
  | Scenario_put of { name : string; scenario : Probcons.Scenario.t; nonce : int }
      (** Store a named scenario in the replicated scenario registry.
          In a replicated deployment ({!Replica}) the put is sequenced
          through the Raft log before it is acknowledged; followers
          answer [not_leader] with a leader hint. [nonce] (default 0)
          distinguishes deliberate re-puts of identical content — the
          replication command id is the canonical param bytes. Never
          cached. *)
  | Scenario_get of { name : string; linearizable : bool }
      (** Read a named scenario back. Plain gets are served from the
          local replica's applied state (bounded staleness, any
          replica); [linearizable] gets are leader-only and sequenced
          behind a log read barrier. Never cached. *)
  | Replica_status
      (** Replica introspection: id, role, term, leader hint, commit /
          applied indices, store size, staleness. Never cached. *)
  | Stats  (** Server introspection; never cached. *)
  | Ping
      (** Health check: uptime, queue depth, live connections. Answered
          by the reader thread {e before} the request queue, so an
          overloaded or draining server still answers it — the probe a
          load balancer or the chaos harness can rely on. Never
          cached. *)

type error_code =
  | Parse_error  (** The body is not valid JSON. *)
  | Unsupported_version  (** [v] missing or not {!protocol_version}. *)
  | Bad_request  (** Envelope or params malformed / out of bounds. *)
  | Unknown_kind
  | Overloaded
      (** Request queue full, or the connection cap was hit — explicit
          backpressure. *)
  | Deadline_exceeded  (** Queued past the server's deadline. *)
  | Shutting_down  (** Server draining; no new work accepted. *)
  | Internal
  | Not_leader
      (** Replicated deployments only: this replica cannot sequence the
          state-mutating request because it is not the Raft leader. The
          error's [hint] field (when present) is the believed leader's
          replica id; {!Client.Multi} uses it to redirect. Safe to
          retry on another endpoint — the request was not executed. *)
  | Timeout
      (** Client-side: the per-call deadline expired with no complete,
          well-formed reply. Never sent by the server — minted by
          {!Client} (and counted by {!Loadgen}) so a stalled socket
          surfaces as a typed error instead of a hang. *)
  | Connection_lost
      (** Client-side: the connection dropped (reset, EOF, corrupted
          framing) and the retry budget ran out. Never sent by the
          server. *)

val protocol_version : int
(** 3 — the one version requests must carry and responses are
    stamped with. *)

val protocol_name : string
(** ["probcons-wire/3"] — the protocol identifier. *)

val code_string : error_code -> string

type request = { id : int; query : query }

val encode_request : request -> string
(** Canonical body encoding (no frame header). *)

val parse_request :
  string -> (request, int option * error_code * string) result
(** Total parser. The [int option] is the request id when the envelope
    was intact enough to recover it, so the error response can still be
    correlated. *)

val canonical_key : query -> string
(** Deterministic cache key: the query's kind plus its params in
    canonical field order and number formatting. Two requests with the
    same key are guaranteed the same response payload. *)

val store_name_error : string -> string option
(** The one scenario-store name rule: [None] for 1 to 64 bytes of
    [A-Za-z0-9._-], else what is wrong with the name. *)

val cacheable : query -> bool
(** All compute queries are; [Stats], [Ping] and the replica-plane
    queries ([Scenario_put]/[Scenario_get]/[Replica_status], which
    touch live replicated state) are not. *)

val ok_prefix : id:int -> string
(** The response envelope up to (excluding) the payload bytes:
    [{"v": 3, "id": N, "ok": ]. With {!ok_suffix} this lets a writer
    emit a success reply as three slices — prefix, the payload
    straight from the reply cache's rendered bytes, suffix — with no
    per-request concatenation. *)

val ok_suffix : string
(** ["}"] — closes the envelope {!ok_prefix} opened. *)

val encode_ok : id:int -> payload:string -> string
(** [ok_prefix ^ payload ^ ok_suffix] as one string. [payload] must be
    rendered JSON (it is spliced verbatim, which is what keeps cached
    responses byte-identical). *)

val encode_error : ?hint:int -> id:int option -> error_code -> string -> string
(** [id = None] (the request id could not be parsed) encodes as
    [id: null] — never a placeholder integer, which could collide with
    a real in-flight id and let a corruption-triggered error reply
    answer a healthy request. [hint] adds a [hint] field to the error
    object — the believed-leader replica id on [not_leader] replies. *)

val seeded_bug_id0 : bool ref
(** {b Test-only.} When set, {!encode_error} regresses to the pre-fix
    behaviour of stamping unattributable errors with [id: 0] instead of
    [id: null] — the exact bug the PR-5 chaos soak caught. The
    deterministic-simulation harness ({!Dst}, [probcons dst
    --seeded-bug]) flips this to prove it can find, shrink, and replay
    a real invariant violation; nothing else may touch it. *)

type response = {
  rid : int option;  (** Echoed id; [None] on malformed responses. *)
  body : (Obs.Json.t, error_code * string) result;
  rhint : int option;
      (** The error object's [hint] field when present (a [not_leader]
          redirect's believed-leader replica id); [None] otherwise. *)
}

val parse_response : string -> (response, string) result
(** Client side: [Error] only when the body is not a valid response
    envelope at all (transport corruption). A valid envelope is a JSON
    document with an [ok] or an [error] member, not both; the first
    occurrence of a key counts. *)

val response_verdict :
  string -> (int option * (unit, error_code * string) result, string) result
(** {!parse_response} without the payload: [Ok (rid, Ok ())] exactly
    when {!parse_response} is [Ok { rid; body = Ok _; _ }],
    [Ok (rid, Error e)] when it is [Ok { rid; body = Error e; _ }],
    and the same [Error] otherwise. One walk checks the whole body,
    deep payload included, but builds only the id and an error member,
    so what it allocates does not grow with an ok payload. *)
