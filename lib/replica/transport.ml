module Frame = Service.Frame
module Nonblock = Service.Nonblock
module Raft_types = Raft_sim.Raft_types

(* A catch-up AppendEntries carries every command payload it ships, so
   the raft plane's frame bound is larger than the service plane's. *)
let max_envelope_bytes = 4_000_000

(* What one link may hold unwritten: two of the largest envelopes. *)
let max_backlog_bytes = 2 * max_envelope_bytes

(* How long a link whose connect or write failed takes no frames. *)
let reconnect_delay = 0.05

(* ---- envelopes ------------------------------------------------------ *)

(* An envelope is a little-endian u32 CRC-32 (Storage's) of the bytes
   after it, then little-endian int64 words: src, dst, the message's tag
   and its fields in declaration order, booleans as 0 or 1. An entry
   list is a count, then each entry's term, index and command: tag 0 and
   the data, or tag 1, the member count and the members. The payloads
   are a count, then each one's seq, byte length and bytes. *)

let crc_bytes = 4
let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)
let add_ints buf = List.iter (add_int buf)
let add_bool buf b = add_int buf (if b then 1 else 0)

let add_entry buf (e : Raft_types.entry) =
  add_ints buf [ e.term; e.index ];
  match e.command with
  | Data c -> add_ints buf [ 0; c ]
  | Config members -> add_ints buf (1 :: List.length members :: members)

let add_msg buf : Raft_types.msg -> unit = function
  | Request_vote { term; candidate_id; last_log_index; last_log_term } ->
      add_ints buf [ 0; term; candidate_id; last_log_index; last_log_term ]
  | Request_vote_reply { term; voter_id; granted } ->
      add_ints buf [ 1; term; voter_id ];
      add_bool buf granted
  | Append_entries
      { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }
    ->
      add_ints buf
        [ 2; term; leader_id; prev_log_index; prev_log_term; List.length entries ];
      List.iter (add_entry buf) entries;
      add_int buf leader_commit
  | Append_entries_reply { term; follower_id; success; match_index } ->
      add_ints buf [ 3; term; follower_id ];
      add_bool buf success;
      add_int buf match_index
  | Timeout_now { term } -> add_ints buf [ 4; term ]
  | Read_probe { term; leader_id; round } -> add_ints buf [ 5; term; leader_id; round ]
  | Read_probe_reply { term; follower_id; round } ->
      add_ints buf [ 6; term; follower_id; round ]

let envelope_to_line ~src ~dst msg ~payloads =
  let buf = Buffer.create 256 in
  add_ints buf [ src; dst ];
  add_msg buf msg;
  add_int buf (List.length payloads);
  List.iter
    (fun (seq, bytes) ->
      add_ints buf [ seq; String.length bytes ];
      Buffer.add_string buf bytes)
    payloads;
  let body = Buffer.contents buf in
  let len = String.length body in
  let out = Bytes.create (crc_bytes + len) in
  Bytes.set_int32_le out 0 (Int32.of_int (Storage.crc32 body ~pos:0 ~len));
  Bytes.blit_string body 0 out crc_bytes len;
  Bytes.unsafe_to_string out

(* The decoder reads through a cursor; every read is bounds-checked and
   a bad field raises [Malformed], which [envelope_of_line] turns into
   an [Error]. Fields are read in sequence with [let]: the order in
   which a record's fields are evaluated is unspecified. *)
exception Malformed of string

type cursor = { s : string; mutable pos : int }

let int c =
  if c.pos + 8 > String.length c.s then raise (Malformed "cut short");
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let bool c =
  match int c with 0 -> false | 1 -> true | _ -> raise (Malformed "bad boolean")

let count c =
  let k = int c in
  if k < 0 || k > String.length c.s - c.pos then raise (Malformed "bad count");
  k

let list c item =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (item c :: acc) in
  go (count c) []

let entry c : Raft_types.entry =
  let term = int c in
  let index = int c in
  let command : Raft_types.command =
    match int c with
    | 0 -> Data (int c)
    | 1 -> Config (list c int)
    | _ -> raise (Malformed "bad command tag")
  in
  if term < 0 || index < 1 then raise (Malformed "entry term/index out of range");
  { term; index; command }

let msg c : Raft_types.msg =
  match int c with
  | 0 ->
      let term = int c in
      let candidate_id = int c in
      let last_log_index = int c in
      let last_log_term = int c in
      Request_vote { term; candidate_id; last_log_index; last_log_term }
  | 1 ->
      let term = int c in
      let voter_id = int c in
      let granted = bool c in
      Request_vote_reply { term; voter_id; granted }
  | 2 ->
      let term = int c in
      let leader_id = int c in
      let prev_log_index = int c in
      let prev_log_term = int c in
      let entries = list c entry in
      let leader_commit = int c in
      (* A follower pushes each entry at the end of its log once the
         ones before it match, so the indices must run on from
         [prev_log_index]. *)
      if prev_log_index < 0 then raise (Malformed "negative prev_log_index");
      List.iteri
        (fun i (e : Raft_types.entry) ->
          if e.index <> prev_log_index + 1 + i then
            raise (Malformed "entries out of sequence"))
        entries;
      Append_entries
        { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }
  | 3 ->
      let term = int c in
      let follower_id = int c in
      let success = bool c in
      let match_index = int c in
      Append_entries_reply { term; follower_id; success; match_index }
  | 4 -> Timeout_now { term = int c }
  | 5 ->
      let term = int c in
      let leader_id = int c in
      let round = int c in
      Read_probe { term; leader_id; round }
  | 6 ->
      let term = int c in
      let follower_id = int c in
      let round = int c in
      Read_probe_reply { term; follower_id; round }
  | _ -> raise (Malformed "bad message tag")

(* The id a message names as its sender, which Raft answers. *)
let sender : Raft_types.msg -> int option = function
  | Request_vote { candidate_id = id; _ }
  | Request_vote_reply { voter_id = id; _ }
  | Append_entries { leader_id = id; _ }
  | Append_entries_reply { follower_id = id; _ }
  | Read_probe { leader_id = id; _ }
  | Read_probe_reply { follower_id = id; _ } ->
      Some id
  | Timeout_now _ -> None

let payload c =
  let seq = int c in
  let len = count c in
  if seq < 0 then raise (Malformed "bad payload seq");
  let bytes = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  (seq, bytes)

let envelope_of_line s =
  let n = String.length s in
  if n < crc_bytes then Error "envelope: cut short"
  else if
    Int32.to_int (String.get_int32_le s 0) land 0xFFFFFFFF
    <> Storage.crc32 s ~pos:crc_bytes ~len:(n - crc_bytes)
  then Error "envelope: checksum mismatch"
  else
    let c = { s; pos = crc_bytes } in
    match
      let src = int c in
      let dst = int c in
      let msg = msg c in
      (match sender msg with
      | Some id when id <> src -> raise (Malformed "sender is not src")
      | _ -> ());
      let payloads = list c payload in
      if c.pos <> n then raise (Malformed "trailing bytes");
      (src, dst, msg, payloads)
    with
    | envelope -> Ok envelope
    | exception Malformed why -> Error ("envelope: " ^ why)

(* One outbound link per peer. Links are lossy, like the simulator's
   Network: a failed connect or write drops the queue, and Raft's
   retries carry the state. *)
type link = {
  port : int;
  mutable fd : Unix.file_descr option;  (* connecting or connected *)
  out : Nonblock.queue;
  mutable retry_at : float;
}

type conn = { fd : Unix.file_descr; frames : Frame.decoder }

type t = {
  listener : Unix.file_descr;
  links : link option array;
  mutable conns : conn list;
  chunk : Bytes.t;
  scratch : Bytes.t;
  mutable dropped : int;
}

let create ~port ~peers =
  {
    listener = Nonblock.listen_tcp port;
    links =
      Array.map
        (Option.map (fun port ->
             { port; fd = None; out = Nonblock.queue (); retry_at = 0. }))
        peers;
    conns = [];
    chunk = Bytes.create 65536;
    scratch = Bytes.create 65536;
    dropped = 0;
  }

let dropped t = t.dropped

let fail (link : link) =
  Option.iter Nonblock.close link.fd;
  link.fd <- None;
  Nonblock.clear link.out;
  link.retry_at <- Unix.gettimeofday () +. reconnect_delay

let send t ~dst envelope =
  match t.links.(dst) with
  | None -> ()
  | Some link ->
      let n = String.length envelope in
      if
        n = 0 || n > max_envelope_bytes
        || Nonblock.queued link.out + Frame.header_bytes + n > max_backlog_bytes
      then t.dropped <- t.dropped + 1
      else if link.fd <> None || Unix.gettimeofday () >= link.retry_at then
        Nonblock.push link.out
          (Frame.encode ~max_payload_bytes:max_envelope_bytes envelope)

(* A connecting socket takes no bytes yet (EAGAIN); once the connect
   fails, writing raises and the link fails. *)
let write t (link : link) =
  match link.fd with
  | None -> ()
  | Some fd -> (
      try ignore (Nonblock.flush link.out fd ~scratch:t.scratch)
      with Nonblock.Closed -> fail link)

let connect (link : link) =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  link.fd <- Some fd;
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, link.port)) with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
  | exception Unix.Unix_error _ -> fail link

let flush t =
  Array.iter
    (Option.iter (fun (link : link) ->
         if Nonblock.queued link.out > 0 then begin
           if link.fd = None then connect link;
           write t link
         end))
    t.links

exception Bad_envelope

let close_conn t (conn : conn) =
  Nonblock.close conn.fd;
  t.conns <- List.filter (fun c -> c != conn) t.conns

let read t (conn : conn) ~deliver =
  match
    Nonblock.read_frames conn.fd ~chunk:t.chunk conn.frames (fun body ->
        match envelope_of_line body with
        | Ok (src, dst, msg, payloads) -> deliver ~src ~dst msg ~payloads
        | Error _ -> raise Bad_envelope)
  with
  | `Again | `Read -> ()
  | `Closed | `Bad _ -> close_conn t conn
  | exception Bad_envelope -> close_conn t conn

let rec accept t =
  match Nonblock.accept t.listener with
  | None -> ()
  | Some fd ->
      t.conns <-
        { fd; frames = Frame.create ~max_payload_bytes:max_envelope_bytes () }
        :: t.conns;
      accept t

let fds t =
  ( t.listener :: List.map (fun (c : conn) -> c.fd) t.conns,
    Array.fold_left
      (fun acc -> function
        | Some ({ fd = Some fd; _ } as link : link)
          when Nonblock.queued link.out > 0 ->
            fd :: acc
        | _ -> acc)
      [] t.links )

let service t ~readable ~deliver =
  let conns = t.conns in
  if List.mem t.listener readable then accept t;
  List.iter
    (fun (c : conn) -> if List.mem c.fd readable then read t c ~deliver)
    conns

let close t =
  Nonblock.close t.listener;
  List.iter (fun (c : conn) -> Nonblock.close c.fd) t.conns;
  t.conns <- [];
  Array.iter
    (Option.iter (fun (link : link) ->
         Option.iter Nonblock.close link.fd;
         link.fd <- None))
    t.links
