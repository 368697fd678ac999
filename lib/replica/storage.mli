(** Write-ahead persistence for one replica process.

    Exactly what the Raft paper puts on stable storage — current term,
    vote, and the log — plus the command bytes of each [Data] entry. A
    state directory holds one append-only segment file, [durable.log],
    of frames laid end to end, each a {!Service.Frame} around a body
    sealed by {!Raft_sim.Raft_codec.seal}, as the raft plane frames an
    envelope:

    - a header frame whose body is the schema string,
      ["probcons-replica-durable/3"];
    - then one frame per {!record}: a tag word (0 hard state, 1 entry,
      2 truncate), then a hard state's term and vote (-1 for none), an
      entry in {!Raft_sim.Raft_codec}'s layout followed by its
      payload's length (-1 for none) and bytes, or a truncate's first
      index;
    - then zeros: the writer preallocates the file in 256 KiB chunks,
      so an append overwrites zeros and its fsync leaves the file size
      alone. Loading reads the fill as a torn tail, as below.

    The {!Node} cycle appends what changed — the hard state,
    a [Truncate] where the log diverged, the new entries — in one write
    and one fsync, {e before} flushing outbound replies, so a
    follower's success reply never leaves the process ahead of the log
    it acknowledges. On restart the segment is replayed into
    {!Raft_sim.Raft_node.restore} and committed entries are re-applied
    idempotently.

    Recovery contract, so a replica never boots empty or short over
    damaged state:
    - no segment file is a fresh start, but a directory holding only a
      legacy [durable.json], or a segment of the older
      [probcons-replica-durable/2] format, is an error;
    - a missing, cut or damaged header is an error;
    - the last frame may be torn by a crash mid-append (cut short or
      failing its checksum, perhaps followed by zero fill): a bad frame
      after which no good frame starts before the file's trailing
      zeros ends the replay, and {!open_log} cuts it off before
      appending. Zero fill can also complete a frame whose last bytes
      were zeros; that frame is the bytes a complete write leaves, and
      it loads;
    - any other bad frame, and any checksum-valid record that is
      malformed or does not replay (an entry off the end of the log, a
      truncate past it), is an error. *)

type snapshot = {
  term : int;
  voted_for : int option;
  log : Raft_sim.Raft_types.entry list;
  payloads : (int * string) list;
      (** Sequence number to canonical command bytes. *)
}

type record =
  | Hard_state of { term : int; voted_for : int option }
  | Entry of { entry : Raft_sim.Raft_types.entry; payload : string option }
      (** Appends at [entry.index], which must be one past the end of
          the log. [payload] carries a [Data] entry's command bytes. *)
  | Truncate of { from : int }
      (** Drops the entries at index [from] and beyond. *)

val path : dir:string -> string
(** The segment file inside a replica's state directory. *)

val save : dir:string -> snapshot -> unit
(** Replace the segment with one holding [snapshot]: temp file, fsync,
    rename, directory fsync. Payloads no [Data] entry refers to are
    dropped. Raises [Unix.Unix_error] on I/O failure. *)

val load : dir:string -> (snapshot option, string) result
(** Replay the segment up to any torn tail. [Ok None] when there is no
    segment; [Error] under the recovery contract above. [payloads] are
    the [Data] entries' bytes, in log order. *)

type log
(** A segment open for appending, by one writer at a time. *)

val open_log : dir:string -> (log * snapshot option, string) result
(** {!load}, then open the segment for appending. A missing segment is
    created holding only its header, and the directory synced. A torn
    tail, fill included, is cut back to the last good frame; then the
    file is zero-filled to the next 256 KiB boundary and synced. *)

val append : log -> record list -> unit
(** Write the records after the last frame with one write and one
    fsync; nothing for [[]]. A batch that would cross the file's end
    first extends it by whole 256 KiB chunks of zeros (a write and an
    fsync). Raises [Unix.Unix_error] on I/O failure and
    [Invalid_argument] for a record over 16 MiB. *)

val close : log -> unit
