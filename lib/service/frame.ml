let magic = '\xFB'
let version = 3
let header_bytes = 6

(* The service plane's bound: the longest request body a server reads. *)
let max_payload_bytes = 1 lsl 20

type error =
  | Bad_magic of int
  | Bad_version of int
  | Zero_length
  | Oversized of int

let error_message = function
  | Bad_magic b -> Printf.sprintf "bad frame magic 0x%02X" b
  | Bad_version v -> Printf.sprintf "unsupported frame version %d" v
  | Zero_length -> "zero-length frame"
  | Oversized n ->
      Printf.sprintf "frame payload of %d bytes exceeds the decoder's limit" n

let check_length ~limit len =
  if len < 1 || len > limit then
    invalid_arg (Printf.sprintf "Frame: payload of %d bytes out of bounds" len)

let header ~payload_bytes =
  check_length ~limit:max_payload_bytes payload_bytes;
  let h = Bytes.create header_bytes in
  Bytes.set h 0 magic;
  Bytes.set h 1 (Char.chr version);
  Bytes.set_int32_be h 2 (Int32.of_int payload_bytes);
  Bytes.unsafe_to_string h

let encode ?(max_payload_bytes = max_payload_bytes) payload =
  let len = String.length payload in
  check_length ~limit:max_payload_bytes len;
  let b = Bytes.create (header_bytes + len) in
  Bytes.set b 0 magic;
  Bytes.set b 1 (Char.chr version);
  Bytes.set_int32_be b 2 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* Incremental decoder: a flat grow-and-compact byte window plus a
   queue of completed payloads. [feed] cuts every complete frame it
   can, so the window only ever holds one partial frame, bounded by
   header + the decoder's payload limit. *)
type decoder = {
  limit : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first live byte *)
  mutable len : int;  (* live byte count *)
  frames : string Queue.t;
  mutable err : error option;
}

let create ?(max_payload_bytes = max_payload_bytes) () =
  {
    limit = max_payload_bytes;
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    frames = Queue.create ();
    err = None;
  }

let reset d =
  d.start <- 0;
  d.len <- 0;
  Queue.clear d.frames;
  d.err <- None

let ensure_room d extra =
  let need = d.len + extra in
  if d.start > 0 && Bytes.length d.buf - d.start < need then begin
    (* Compact before growing: the live window always starts at 0
       after this, so growth is driven by frame size, not history. *)
    Bytes.blit d.buf d.start d.buf 0 d.len;
    d.start <- 0
  end;
  if Bytes.length d.buf < need then begin
    let cap = ref (Bytes.length d.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit d.buf d.start bigger 0 d.len;
    d.buf <- bigger;
    d.start <- 0
  end

(* Validate each header byte the moment it arrives: corruption is
   reported as soon as it is visible — before waiting for the rest of
   the header, let alone the (possibly huge, possibly never-arriving)
   payload. Returns the declared payload length once all 6 bytes are
   in; [avail] header bytes from [pos] are present. *)
let check_header ~limit b ~pos ~avail =
  let at i = Bytes.get b (pos + i) in
  if avail >= 1 && at 0 <> magic then Error (Bad_magic (Char.code (at 0)))
  else if avail >= 2 && Char.code (at 1) <> version then
    Error (Bad_version (Char.code (at 1)))
  else if avail < header_bytes then Ok None
  else
    let len = Int32.to_int (Bytes.get_int32_be b (pos + 2)) in
    let len = len land 0xFFFFFFFF in
    if len = 0 then Error Zero_length
    else if len > limit then Error (Oversized len)
    else Ok (Some len)

let header_at ?(max_payload_bytes = max_payload_bytes) s ~pos =
  check_header ~limit:max_payload_bytes (Bytes.unsafe_of_string s) ~pos
    ~avail:(String.length s - pos)

let rec cut d =
  if d.err = None && d.len > 0 then
    match check_header ~limit:d.limit d.buf ~pos:d.start ~avail:d.len with
    | Error e -> d.err <- Some e
    | Ok None -> ()  (* incomplete header, all bytes valid so far *)
    | Ok (Some payload_len) ->
        if d.len >= header_bytes + payload_len then begin
          Queue.push
            (Bytes.sub_string d.buf (d.start + header_bytes) payload_len)
            d.frames;
          d.start <- d.start + header_bytes + payload_len;
          d.len <- d.len - header_bytes - payload_len;
          if d.len = 0 then d.start <- 0;
          cut d
        end

let feed d chunk len =
  if d.err = None && len > 0 then begin
    ensure_room d len;
    Bytes.blit chunk 0 d.buf (d.start + d.len) len;
    d.len <- d.len + len;
    cut d
  end

let next d =
  match Queue.take_opt d.frames with
  | Some payload -> Ok (Some payload)
  | None -> ( match d.err with Some e -> Error e | None -> Ok None)
