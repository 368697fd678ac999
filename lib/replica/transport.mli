(** The inter-replica TCP plane.

    Raft messages travel as binary envelopes, one per {!Service.Frame}
    — the framing clients and the reactor speak, and the segment file
    ({!Storage}) writes. An envelope is {!Raft_sim.Raft_codec}'s
    layout under its CRC-32 seal: source, destination, the message,
    then the payloads, a count and then each one's seq, length and
    bytes. The payloads piggyback the canonical command bytes of the
    message's [Data seq] entries, keyed by sequence number: the Raft
    core replicates small integers while the real command bodies ride
    alongside and land in each replica's payload table before the
    message is processed. The checksum keeps bytes spliced into a
    stream (the chaos proxy does this) from decoding as shifted
    fields.

    A replica's raft-plane sockets — its listener, the connections it
    accepted, and one outbound link per peer — belong to one thread,
    the replica's server loop ({!Node}). There are no sender or reader
    threads: the loop adds every socket to its [select] ({!fds}),
    decodes inbound envelopes ({!service}), and writes outbound frames
    without blocking ({!flush}) when its cycle allows.

    Links are deliberately lossy, the message model the simulator's
    network presents: a link whose connect or write fails
    (say, reset by a chaos proxy) drops its queue and takes nothing
    for 50 ms, and Raft's retries re-carry the state. A frame is never
    cut short on a connection that stays open. *)

val envelope_to_line :
  src:int ->
  dst:int ->
  Raft_sim.Raft_types.msg ->
  payloads:(int * string) list ->
  string
(** The binary envelope, unframed. *)

val envelope_of_line :
  string ->
  (int * int * Raft_sim.Raft_types.msg * (int * string) list, string) result
(** Total decoder: [(src, dst, msg, payloads)]. It checks the CRC
    first; then it reads as {!Raft_sim.Raft_codec.msg} does, payload
    seqs must not be negative, and the envelope must end where the
    decoder stops. The message's sender field ([candidate_id],
    [voter_id], [leader_id] or [follower_id]) must be [src]. *)

type t

val create : port:int -> peers:int option array -> t
(** Bind a non-blocking listener on [127.0.0.1:port]. [peers.(i)] is
    the port the link to peer [i] dials (its listener, or the chaos
    proxy in front of it); [None] for the replica itself. Nothing
    connects until a link holds queued bytes. Raises [Unix.Unix_error]
    when binding fails. *)

val fds : t -> Unix.file_descr list * Unix.file_descr list
(** What to [select] on: the listener and the accepted connections for
    reading, the links holding queued bytes for writing. *)

val service :
  t ->
  readable:Unix.file_descr list ->
  deliver:
    (src:int ->
    dst:int ->
    Raft_sim.Raft_types.msg ->
    payloads:(int * string) list ->
    unit) ->
  unit
(** After a [select]: accept on a readable listener, then read every
    readable connection and [deliver] each decoded envelope. A bad
    frame or envelope closes only its own connection. Links are
    written by {!flush}. *)

val send : t -> dst:int -> string -> unit
(** Frame one envelope onto [dst]'s link; nothing is written until
    {!flush}. Refused and counted in {!dropped} when it is
    empty, over the raft plane's frame bound (4,000,000 bytes; a
    connection announcing a larger frame is closed), or would grow the
    link's backlog past two such envelopes; dropped when the link failed under 50 ms
    ago. *)

val flush : t -> unit
(** Connect every idle link that holds queued bytes, and write what
    the kernel takes. *)

val dropped : t -> int
(** Envelopes {!send} refused. *)

val close : t -> unit
(** Close the listener, the accepted connections and the links. *)
