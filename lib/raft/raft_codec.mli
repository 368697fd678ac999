(** The binary codec for Raft entries and messages: the one encoding of
    the Raft log, on the wire and on disk.

    The simulator delivers typed messages in memory. The replicated
    service writes this layout twice: in the raft plane's envelopes
    ([Replica.Transport]) and in the records of each replica's segment
    file ([Replica.Storage]). Both seal their bytes with {!seal} and
    frame them with [Service.Frame].

    Every field is a little-endian int64 word. A message is its tag (0
    [Request_vote], 1 [Request_vote_reply], 2 [Append_entries], 3
    [Append_entries_reply], 4 [Timeout_now], 5 [Read_probe], 6
    [Read_probe_reply]) and then its fields in declaration order,
    booleans as 0 or 1. An entry list is a count, then each entry's
    term, index and command: tag 0 and the data, or tag 1, the member
    count and the members.

    Readers are total over untrusted bytes: every read is
    bounds-checked, and a bad field raises {!Malformed}, which {!read}
    turns into an [Error]. *)

(** {1 Writing} *)

val add_int : Buffer.t -> int -> unit
(** One word. *)

val add_string : Buffer.t -> string -> unit
(** A length word, then the bytes. *)

val add_entry : Buffer.t -> Raft_types.entry -> unit
val add_msg : Buffer.t -> Raft_types.msg -> unit

(** {1 Reading} *)

exception Malformed of string

type cursor
(** A position inside a sealed body; reads advance it. *)

val int : cursor -> int

val take : cursor -> int -> string
(** That many bytes. Raises {!Malformed} for a negative length or one
    past the end of the body. *)

val string : cursor -> string
(** What {!add_string} wrote. *)

val list : cursor -> (cursor -> 'a) -> 'a list
(** A count, no larger than the bytes left, then that many items. *)

val entry : cursor -> Raft_types.entry
(** Refuses an unknown command tag, a negative term and an index
    below 1. *)

val msg : cursor -> Raft_types.msg
(** Refuses an unknown tag and a boolean other than 0 or 1. An
    [Append_entries] must have a non-negative [prev_log_index], and its
    entries' indices must run [prev_log_index + 1], [+ 2], and so
    on. *)

val read : cursor -> (cursor -> 'a) -> ('a, string) result
(** Run a reader over the rest of the body: [Error] when it raises
    {!Malformed} or leaves bytes unread. *)

(** {1 The seal} *)

val seal : (Buffer.t -> unit) -> string
(** The bytes the writer adds, behind a little-endian u32 CRC-32 of
    them. *)

val unseal : string -> pos:int -> len:int -> cursor option
(** A cursor over the body of the [len] sealed bytes at [pos], when
    they are long enough to hold a checksum and it holds. *)

(** {1 JSON} *)

val msg_to_json : Raft_types.msg -> Obs.Json.t
(** A JSON rendering of a message. No path reads or writes it; the
    benchmark's [raft_codec.msg_encode_us] row times it. *)
