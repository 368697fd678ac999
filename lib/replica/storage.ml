module Raft_types = Raft_sim.Raft_types

let schema = "probcons-replica-durable/2"
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

(* ---- frames --------------------------------------------------------- *)

(* CRC-32 as in zlib and Ethernet: reflected polynomial 0xEDB88320. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      crc_table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Records are never empty and stay under 16 MiB, so the top byte of
   every length field is zero. Canonical JSON never holds a NUL byte (it
   escapes control characters) and always ends in a bracket, which lets
   [frame_at] tell a torn tail from a damaged frame with more frames
   behind it. *)
let max_record_bytes = (1 lsl 24) - 1
let frame_header_bytes = 8

let add_frame buf body =
  let len = String.length body in
  if len > max_record_bytes then invalid_arg "Storage: record over 16 MiB";
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_int32_le buf (Int32.of_int (crc32 body ~pos:0 ~len));
  Buffer.add_string buf body

let u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

type frame = Frame of string * int | End | Torn | Corrupt

(* No byte in [from, until) is NUL. *)
let nul_free s ~from ~until =
  let rec go i = i >= until || (s.[i] <> '\000' && go (i + 1)) in
  go from

(* A frame that is cut, empty or fails its checksum is a torn tail —
   the unfinished last append of a crash — only when no later frame can
   follow it. A later frame ends in a JSON byte, so it lies before the
   file's trailing run of NULs (the zero fill a crash can leave after
   the last block written), and its length field holds a NUL. So the
   frame is torn when the bytes from its body up to that run hold no
   NUL; anything else is damage. *)
let frame_at s pos =
  let len = String.length s in
  let body = pos + frame_header_bytes in
  let size = if body > len then 0 else u32 s pos in
  if pos = len then End
  else if
    size > 0 && size <= len - body && crc32 s ~pos:body ~len:size = u32 s (pos + 4)
  then Frame (String.sub s body size, body + size)
  else
    let rec fill_start i =
      if i > 0 && s.[i - 1] = '\000' then fill_start (i - 1) else i
    in
    if nul_free s ~from:body ~until:(fill_start len) then Torn else Corrupt

(* ---- records -------------------------------------------------------- *)

let header =
  Obs.Json.to_string (Obs.Json.Obj [ ("schema", Obs.Json.String schema) ])

let record_to_json = function
  | Hard_state { term; voted_for } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "hard_state");
          ("term", Obs.Json.Int term);
          ( "voted_for",
            match voted_for with
            | None -> Obs.Json.Null
            | Some v -> Obs.Json.Int v );
        ]
  | Entry { entry; payload } ->
      Obs.Json.Obj
        (("type", Obs.Json.String "entry")
        :: ("entry", Raft_sim.Raft_codec.entry_to_json entry)
        ::
        (match payload with
        | None -> []
        | Some bytes -> [ ("payload", Obs.Json.String bytes) ]))
  | Truncate { from } ->
      Obs.Json.Obj
        [ ("type", Obs.Json.String "truncate"); ("from", Obs.Json.Int from) ]

let record_of_string body =
  let* j = Obs.Json.of_string body in
  let field name = Obs.Json.member name j in
  match field "type" with
  | Some (Obs.Json.String "hard_state") -> (
      match (field "term", field "voted_for") with
      | Some (Obs.Json.Int term), Some Obs.Json.Null when term >= 0 ->
          Ok (Hard_state { term; voted_for = None })
      | Some (Obs.Json.Int term), Some (Obs.Json.Int v) when term >= 0 && v >= 0
        ->
          Ok (Hard_state { term; voted_for = Some v })
      | _ -> Error "bad hard_state record")
  | Some (Obs.Json.String "entry") -> (
      let* entry =
        match field "entry" with
        | Some e -> Raft_sim.Raft_codec.entry_of_json e
        | None -> Error "entry record without an entry"
      in
      match field "payload" with
      | None -> Ok (Entry { entry; payload = None })
      | Some (Obs.Json.String bytes) -> Ok (Entry { entry; payload = Some bytes })
      | Some _ -> Error "bad entry payload")
  | Some (Obs.Json.String "truncate") -> (
      match field "from" with
      | Some (Obs.Json.Int from) when from >= 1 -> Ok (Truncate { from })
      | _ -> Error "bad truncate record")
  | _ -> Error "unknown record type"

let add_record buf r = add_frame buf (Obs.Json.to_string (record_to_json r))

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
    match frame_at contents 0 with
    | Frame (body, stop) when body = header -> Ok stop
    | Frame _ -> Error "wrong or missing schema"
    | End | Torn | Corrupt -> Error "missing or damaged header"
  in
  let st = { r_term = 0; r_voted_for = None; r_log = Dessim.Vec.create () } in
  let rec go pos =
    match frame_at contents pos with
    | End | Torn -> Ok pos
    | Corrupt -> Error (Printf.sprintf "corrupt frame at byte %d" pos)
    | Frame (body, stop) ->
        let* () =
          Result.map_error
            (fun msg -> Printf.sprintf "record at byte %d: %s" pos msg)
            (Result.bind (record_of_string body) (apply st))
        in
        go stop
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
  add_frame buf header;
  List.iter (add_record buf) records;
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
    List.iter (add_record buf) records;
    let stop = log.stop + Buffer.length buf in
    if stop > log.allocated then extend log ~until:stop;
    write_all log.fd (Buffer.contents buf);
    log.stop <- stop;
    Unix.fsync log.fd)

let close log = try Unix.close log.fd with Unix.Unix_error _ -> ()
