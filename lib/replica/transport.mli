(** The inter-replica TCP plane.

    Raft messages travel as JSON envelopes
    [{"src", "dst", "msg", "payloads"}], one per {!Service.Frame} —
    the framing clients and the reactor speak: the [msg] is
    {!Raft_sim.Raft_codec}'s encoding, and [payloads] piggybacks the
    canonical command bytes for any [Data seq] entries the message
    carries, keyed by sequence number — the Raft core replicates small
    integers while the real command bodies ride alongside and land in
    each replica's payload table before the message is processed.

    Links are deliberately lossy: a sender that cannot connect (or
    whose connection dies mid-write, e.g. reset by a chaos proxy)
    drops the queued batch and lets Raft's retries re-carry the state,
    which is the same message model the simulator's
    {!Dessim.Network} presents. *)

val max_envelope_bytes : int
(** The raft plane's frame bound (4 MB): a sender drops a larger
    envelope, a reader closes a connection announcing one. *)

val envelope_to_line :
  src:int ->
  dst:int ->
  Raft_sim.Raft_types.msg ->
  payloads:(int * string) list ->
  string
(** The envelope's JSON body, unframed. *)

val envelope_of_line :
  string ->
  (int * int * Raft_sim.Raft_types.msg * (int * string) list, string) result
(** Total decoder: [(src, dst, msg, payloads)]. *)

(** One outbound link to a peer (or to the chaos proxy in front of
    it). Owns a connect-on-demand socket and a dedicated flush
    thread. *)
module Sender : sig
  type t

  val start : port:int -> t
  (** Target is [127.0.0.1:port]; nothing is connected until the first
      {!send}. *)

  val send : t -> string -> unit
  (** Frame one envelope and enqueue it. Never blocks the caller and
      never raises: an envelope over {!max_envelope_bytes} is dropped
      and counted in {!dropped} instead — Raft re-sends what a
      follower still lacks. *)

  val dropped : t -> int
  (** Envelopes dropped by {!send} for exceeding the bound. *)

  val stop : t -> unit
end

(** The replica's inbound raft-plane listener. *)
module Listener : sig
  type t

  val start :
    port:int ->
    deliver:
      (src:int ->
      dst:int ->
      Raft_sim.Raft_types.msg ->
      payloads:(int * string) list ->
      unit) ->
    t
  (** Bind [127.0.0.1:port] and deliver every decoded envelope from a
      per-connection reader thread. A corrupt or oversized frame, or a
      malformed envelope, closes its connection (peers reconnect).
      Raises
      [Unix.Unix_error] when binding fails. *)

  val stop : t -> unit
  (** Close listener and live connections, join all threads. *)
end
