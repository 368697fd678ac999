module Frame = Service.Frame
module Raft_codec = Raft_sim.Raft_codec
module Raft_types = Raft_sim.Raft_types

let schema = "probcons-replica-durable/3"
let file = "durable.log"
let legacy_file = "durable.json"

type snapshot = {
  term : int;
  voted_for : int option;
  log : Raft_types.entry list;
  payloads : (int * string) list;
}

type record =
  | Hard_state of { term : int; voted_for : int option }
  | Entry of { entry : Raft_types.entry; payload : string option }
  | Truncate of { from : int }

let path ~dir = Filename.concat dir file
let ( let* ) = Result.bind

(* ---- records -------------------------------------------------------- *)

(* A record is a tag word, then its fields: a hard state's term and
   vote (-1 for none); an entry in the envelope's layout, then its
   payload's length (-1 for none) and bytes; a truncate's first
   index. *)
let add_record buf = function
  | Hard_state { term; voted_for } ->
      List.iter (Raft_codec.add_int buf)
        [ 0; term; Option.value voted_for ~default:(-1) ]
  | Entry { entry; payload } -> (
      Raft_codec.add_int buf 1;
      Raft_codec.add_entry buf entry;
      match payload with
      | None -> Raft_codec.add_int buf (-1)
      | Some bytes -> Raft_codec.add_string buf bytes)
  | Truncate { from } -> List.iter (Raft_codec.add_int buf) [ 2; from ]

let record c =
  match Raft_codec.int c with
  | 0 ->
      let term = Raft_codec.int c in
      let vote = Raft_codec.int c in
      if term < 0 || vote < -1 then raise (Raft_codec.Malformed "bad hard state");
      Hard_state { term; voted_for = (if vote = -1 then None else Some vote) }
  | 1 ->
      let entry = Raft_codec.entry c in
      let payload =
        match Raft_codec.int c with -1 -> None | len -> Some (Raft_codec.take c len)
      in
      Entry { entry; payload }
  | 2 ->
      let from = Raft_codec.int c in
      if from < 1 then raise (Raft_codec.Malformed "bad truncate");
      Truncate { from }
  | _ -> raise (Raft_codec.Malformed "unknown record tag")

let records_of_snapshot s =
  let payloads = Hashtbl.of_seq (List.to_seq s.payloads) in
  Hard_state { term = s.term; voted_for = s.voted_for }
  :: List.map
       (fun (entry : Raft_types.entry) ->
         let payload =
           match entry.command with
           | Data seq -> Hashtbl.find_opt payloads seq
           | Config _ -> None
         in
         Entry { entry; payload })
       s.log

(* ---- frames --------------------------------------------------------- *)

(* Each record is sealed and framed as the raft plane frames an
   envelope, so the frame's version byte is the wire's: a wire/4 means
   a durable/4. *)
let max_record_bytes = 1 lsl 24

let frame write =
  Frame.encode ~max_payload_bytes:max_record_bytes (Raft_codec.seal write)

let header = frame (fun buf -> Buffer.add_string buf schema)
let add_frame buf r = Buffer.add_string buf (frame (fun b -> add_record b r))

(* The format before this one opened with a u32 length, a u32 CRC-32,
   then this record. *)
let older_header = {|{"schema":"probcons-replica-durable/2"}|}

(* A well-formed frame at [pos] whose checksum holds: a cursor over its
   body, and where the frame ends. *)
let frame_at s pos =
  match Frame.header_at ~max_payload_bytes:max_record_bytes s ~pos with
  | Ok (Some len) when len <= String.length s - pos - Frame.header_bytes ->
      let body = pos + Frame.header_bytes in
      Option.map (fun c -> (c, body + len)) (Raft_codec.unseal s ~pos:body ~len)
  | Ok _ | Error _ -> None

(* A bad frame at [pos] is a torn tail — a crash's unfinished last
   append — only when no good frame starts after it before the file's
   trailing zeros (the fill a crash can leave, or the preallocation).
   Binary records hold NULs and may end in them, so the rule looks for
   a later frame, not for a NUL. A frame starts with the magic byte,
   which command bytes never hold, so few offsets get checksummed. The
   bad frame's length field is not trusted: one flipped bit in it could
   otherwise swallow every frame behind it. *)
let torn s pos =
  let rec fill_start i = if i > 0 && s.[i - 1] = '\000' then fill_start (i - 1) else i in
  let until = fill_start (String.length s) in
  let rec clean from =
    from >= until
    ||
    match String.index_from_opt s from Frame.magic with
    | Some q when q < until -> frame_at s q = None && clean (q + 1)
    | Some _ | None -> true
  in
  clean (pos + 1)

(* ---- replay --------------------------------------------------------- *)

type replay = {
  mutable r_term : int;
  mutable r_voted_for : int option;
  r_log : (Raft_types.entry * string option) Dessim.Vec.t;
}

let apply st = function
  | Hard_state { term; voted_for } ->
      st.r_term <- term;
      st.r_voted_for <- voted_for;
      Ok ()
  | Entry { entry; payload } ->
      let next = Dessim.Vec.length st.r_log + 1 in
      if entry.index <> next then
        Error
          (Printf.sprintf "entry at index %d where %d was due" entry.index next)
      else (
        Dessim.Vec.push st.r_log (entry, payload);
        Ok ())
  | Truncate { from } ->
      let len = Dessim.Vec.length st.r_log in
      if from > len + 1 then
        Error (Printf.sprintf "truncate from %d past the end (%d)" from len)
      else (
        Dessim.Vec.truncate st.r_log (from - 1);
        Ok ())

let snapshot_of st =
  let entries = Dessim.Vec.to_list st.r_log in
  {
    term = st.r_term;
    voted_for = st.r_voted_for;
    log = List.map fst entries;
    payloads =
      List.filter_map
        (fun ((e : Raft_types.entry), payload) ->
          match (e.command, payload) with
          | Data seq, Some bytes -> Some (seq, bytes)
          | _ -> None)
        entries;
  }

(* The snapshot the file's good prefix describes, and where that prefix
   ends. *)
let scan contents =
  let* start =
    if String.starts_with ~prefix:header contents then Ok (String.length header)
    else if
      String.length contents >= 8 + String.length older_header
      && String.sub contents 8 (String.length older_header) = older_header
    then
      Error
        "a probcons-replica-durable/2 segment, from an older format; refusing \
         to boot empty over it"
    else Error "missing or damaged header"
  in
  let st = { r_term = 0; r_voted_for = None; r_log = Dessim.Vec.create () } in
  let rec go pos =
    match frame_at contents pos with
    | Some (c, stop) ->
        let* () =
          Result.map_error
            (fun msg -> Printf.sprintf "record at byte %d: %s" pos msg)
            (Result.bind (Raft_codec.read c record) (apply st))
        in
        go stop
    | None when torn contents pos -> Ok pos
    | None -> Error (Printf.sprintf "corrupt frame at byte %d" pos)
  in
  let* good = go start in
  Ok (snapshot_of st, good)

(* ---- files ---------------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

(* A new directory entry is durable only once the directory itself is
   synced. Filesystems that cannot sync a directory say EINVAL. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

(* Durability contract: the bytes are complete on disk (fsync) before
   the rename makes them visible, and the rename is on disk before this
   returns, so a crash leaves either the old file or the new one. *)
let install ~dir records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  List.iter (add_frame buf) records;
  let final = path ~dir in
  let tmp = final ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (Buffer.contents buf);
      Unix.fsync fd);
  Unix.rename tmp final;
  fsync_dir dir

let save ~dir s = install ~dir (records_of_snapshot s)

let read ~dir =
  let p = path ~dir in
  if Sys.file_exists p then
    Result.map_error
      (fun msg -> Printf.sprintf "storage: %s: %s" p msg)
      (Result.map Option.some
         (scan (In_channel.with_open_bin p In_channel.input_all)))
  else if Sys.file_exists (Filename.concat dir legacy_file) then
    Error
      (Printf.sprintf
         "storage: %s holds only a %s from an older format; refusing to boot \
          empty over it"
         dir legacy_file)
  else Ok None

let load ~dir = Result.map (Option.map fst) (read ~dir)

(* The segment is preallocated: zero-filled in whole chunks ahead of
   the last frame, so an append overwrites allocated bytes and its fsync
   leaves the file size alone. To [load] the fill is a torn tail. *)
let chunk_bytes = 256 * 1024
let zeros = Bytes.make 65536 '\000'

(* Between calls the file offset is [stop], where the next frame goes. *)
type log = {
  fd : Unix.file_descr;
  mutable stop : int;  (* the end of the last frame *)
  mutable allocated : int;  (* the file size, a whole number of chunks *)
}

(* Zero-fill the file from [log.allocated] through the first chunk
   boundary at or past [until], sync, and seek back to [log.stop]. *)
let extend log ~until =
  let target = (until + chunk_bytes - 1) / chunk_bytes * chunk_bytes in
  ignore (Unix.lseek log.fd log.allocated Unix.SEEK_SET);
  while log.allocated < target do
    let n = min (Bytes.length zeros) (target - log.allocated) in
    log.allocated <- log.allocated + Unix.write log.fd zeros 0 n
  done;
  Unix.fsync log.fd;
  ignore (Unix.lseek log.fd log.stop Unix.SEEK_SET)

let open_log ~dir =
  let* found = read ~dir in
  if Option.is_none found then install ~dir [];
  let fd = Unix.openfile (path ~dir) [ O_WRONLY; O_CLOEXEC ] 0o644 in
  let stop =
    match found with
    | Some (_, good) -> good
    | None -> (Unix.fstat fd).Unix.st_size
  in
  (* Cut the torn tail, and any fill behind it, so new frames follow
     the last good one; then preallocate past it. *)
  Unix.ftruncate fd stop;
  let log = { fd; stop; allocated = stop } in
  extend log ~until:(stop + 1);
  Ok (log, Option.map fst found)

let append log records =
  if records <> [] then (
    let buf = Buffer.create 1024 in
    List.iter (add_frame buf) records;
    let stop = log.stop + Buffer.length buf in
    if stop > log.allocated then extend log ~until:stop;
    write_all log.fd (Buffer.contents buf);
    log.stop <- stop;
    Unix.fsync log.fd)

let close log = try Unix.close log.fd with Unix.Unix_error _ -> ()
