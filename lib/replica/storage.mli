(** Write-ahead persistence for one replica process.

    Exactly what the Raft paper puts on stable storage — current term,
    vote, and the log — plus the command bytes of each [Data] entry. A
    state directory holds one append-only segment file, [durable.log]:

    - a header frame whose record is
      [{"schema":"probcons-replica-durable/2"}];
    - then one frame per {!record}: a little-endian u32 length, a
      little-endian u32 CRC-32 (the zlib polynomial) of the record
      bytes, then the record as canonical JSON.

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
      legacy [durable.json] is an error;
    - a missing, cut or damaged header is an error;
    - the last frame may be torn by a crash mid-append (cut short,
      empty, or failing its checksum with no later frame behind it,
      perhaps followed by zero fill): loading stops before it, and
      {!open_log} cuts it off before appending;
    - any other frame that fails its checksum, and any record that does
      not replay (an entry off the end of the log, a truncate past it),
      is an error. *)

val schema : string
(** ["probcons-replica-durable/2"]. *)

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
(** {!load}, then open the segment for appending. A torn tail is cut
    back to the last good frame and synced; a missing segment is
    created holding only its header, and the directory synced. *)

val append : log -> record list -> unit
(** Append the records with one write and one fsync; nothing for
    [[]]. Raises [Unix.Unix_error] on I/O failure and
    [Invalid_argument] for a record over 16 MiB. *)

val close : log -> unit
