(** The [probcons-wire/3] binary framing codec — the one framing on
    every socket: clients and the reactor, and the inter-replica Raft
    plane ([Replica.Transport]); each replica's segment file
    ([Replica.Storage]) frames its records the same way.

    A frame is a fixed 6-byte header followed by the payload bytes:

    {v
      offset 0   magic byte 0xFB   (never a valid first byte of JSON
                                    or UTF-8 text, so stray text on a
                                    framed socket fails at once)
      offset 1   version byte      (0x03 for wire/3)
      offset 2   u32 payload length, big-endian
      offset 6   payload
    v}

    On the service plane the payload is the canonical JSON
    request/response body, so the reply cache, [Registry.analyze_json]
    and the byte-identity guarantee sit above the framing: the same
    query returns the same payload bytes however it was split on the
    way. The raft plane and the segment carry CRC-sealed binary bodies
    ([Raft_sim.Raft_codec.seal]).

    Decoding is total and incremental: bytes are fed in arbitrary
    splits (the chaos proxy's partial writes land here), the header is
    validated as soon as its 6 bytes are available — a bad magic, bad
    version, zero-length or oversized frame is a typed {!error} before
    any payload arrives — and a decoder that has errored stays errored:
    framing corruption is unrecoverable by design, the connection must
    be torn down.

    The payload bound is the caller's: {!max_payload_bytes} (1 MiB) on
    the service plane, a larger one on the raft plane, where a
    catch-up AppendEntries carries many command payloads. *)

val magic : char
(** [0xFB]. *)

val header_bytes : int
(** [6]. *)

val max_payload_bytes : int
(** The service plane's payload bound (1 MiB): the longest request
    body a server reads, and the default of [?max_payload_bytes]
    below. *)

type error =
  | Bad_magic of int  (** First header byte, as a char code. *)
  | Bad_version of int
  | Zero_length  (** Empty frames are invalid: no message is empty. *)
  | Oversized of int  (** Declared payload length beyond the bound. *)

val error_message : error -> string

val encode : ?max_payload_bytes:int -> string -> string
(** [encode payload] is the full frame, header included. Raises
    [Invalid_argument] on an empty payload or one longer than
    [max_payload_bytes] (default {!max_payload_bytes}). *)

val header : payload_bytes:int -> string
(** Just the 6 header bytes for a payload of that length — lets a
    writer emit the header and splice the payload from the reply cache
    without concatenating them. Raises [Invalid_argument] outside
    [1 .. max_payload_bytes]. *)

val header_at :
  ?max_payload_bytes:int -> string -> pos:int -> (int option, error) result
(** The header at [pos] of [s], checked as the decoder checks it:
    [Ok (Some len)] for a valid header declaring [len] payload bytes,
    [Ok None] when [s] ends inside a header that is valid so far.
    Whether the payload is all there is the caller's to check. Lets a
    reader walk frames laid end to end in a file. *)

type decoder

val create : ?max_payload_bytes:int -> unit -> decoder
(** A decoder that rejects frames declaring more than
    [max_payload_bytes] (default {!max_payload_bytes}) as [Oversized],
    from the header alone. *)

val feed : decoder -> bytes -> int -> unit
(** [feed d chunk len] consumes [chunk[0..len-1]]. Complete frames
    queue up for {!next}; a header violation latches the decoder into
    its error state (subsequent feeds are ignored). Amortized
    O(len). *)

val next : decoder -> (string option, error) result
(** Pop the next complete payload. [Ok None] means more bytes are
    needed. Queued frames decoded before a trailing corruption are
    still delivered first; then the latched error. *)

val reset : decoder -> unit
(** Drop buffered bytes, queued frames and any latched error. *)
