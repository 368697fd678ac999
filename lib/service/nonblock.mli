(** Non-blocking socket plumbing shared by the service reactor
    ({!Server}) and the replica's raft plane ([Replica.Transport]),
    which runs on that reactor's loop.

    The loop owns its descriptors and calls these from its own thread
    only; nothing here takes a lock. *)

(** {1 Self-pipe} *)

val pipe : unit -> Unix.file_descr * Unix.file_descr
(** A non-blocking, close-on-exec pipe [(read end, write end)]: other
    threads {!wake} a loop that selects on the read end. *)

val wake : Unix.file_descr -> unit
(** Write one byte to a pipe's write end. Never blocks and never
    raises: a full pipe already holds a pending wake-up. *)

val drain : Unix.file_descr -> unit
(** Read a pipe's read end until it is empty. *)

(** {1 Sockets} *)

val listen_tcp : int -> Unix.file_descr
(** A non-blocking, close-on-exec listener on [127.0.0.1:port]
    ([SO_REUSEADDR], backlog 64). Raises [Unix.Unix_error] when binding
    fails. *)

val accept : Unix.file_descr -> Unix.file_descr option
(** Accept one pending connection, non-blocking, close-on-exec, with
    [TCP_NODELAY] where it applies. [None] when nothing is pending or
    the accept failed. *)

val close : Unix.file_descr -> unit
(** [Unix.close], ignoring errors. *)

val read_frames :
  Unix.file_descr ->
  chunk:bytes ->
  Frame.decoder ->
  (string -> unit) ->
  [ `Again | `Closed | `Read | `Bad of Frame.error ]
(** One [read] into [chunk], fed through the decoder, handing every
    complete payload to the callback in order. [`Again]: nothing to
    read yet. [`Closed]: end of stream or a socket error. [`Bad]: a
    framing violation, after the payloads decoded before it; the
    connection must be dropped. *)

(** {1 Write queue} *)

type queue
(** Frames waiting for the kernel, written in order. A partly written
    frame keeps its place until the rest is written. *)

val queue : unit -> queue
val push : queue -> string -> unit

val queued : queue -> int
(** Bytes not yet written. *)

val clear : queue -> unit

exception Closed

val flush : queue -> Unix.file_descr -> scratch:bytes -> bool
(** Write as much as the kernel takes: [true] once the queue is empty,
    [false] when the kernel pushed back. Small frames are coalesced
    through [scratch], so one syscall carries many; frames of 4 KB and
    more are written straight from their own bytes. Raises {!Closed}
    when the peer is gone. *)
