module Frame = Service.Frame
module Nonblock = Service.Nonblock
module Raft_codec = Raft_sim.Raft_codec
module Raft_types = Raft_sim.Raft_types

(* A catch-up AppendEntries carries every command payload it ships, so
   the raft plane's frame bound is larger than the service plane's. *)
let max_envelope_bytes = 4_000_000

(* What one link may hold unwritten: two of the largest envelopes. *)
let max_backlog_bytes = 2 * max_envelope_bytes

(* How long a link whose connect or write failed takes no frames. *)
let reconnect_delay = 0.05

(* ---- envelopes ------------------------------------------------------ *)

(* A sealed envelope holds src, dst, the message, then the payloads: a
   count, then each one's seq and bytes. *)
let envelope_to_line ~src ~dst msg ~payloads =
  Raft_codec.seal (fun buf ->
      Raft_codec.add_int buf src;
      Raft_codec.add_int buf dst;
      Raft_codec.add_msg buf msg;
      Raft_codec.add_int buf (List.length payloads);
      List.iter
        (fun (seq, bytes) ->
          Raft_codec.add_int buf seq;
          Raft_codec.add_string buf bytes)
        payloads)

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
  let seq = Raft_codec.int c in
  let bytes = Raft_codec.string c in
  if seq < 0 then raise (Raft_codec.Malformed "bad payload seq");
  (seq, bytes)

let envelope c =
  let src = Raft_codec.int c in
  let dst = Raft_codec.int c in
  let msg = Raft_codec.msg c in
  (match sender msg with
  | Some id when id <> src -> raise (Raft_codec.Malformed "sender is not src")
  | _ -> ());
  (src, dst, msg, Raft_codec.list c payload)

let envelope_of_line s =
  Result.map_error (( ^ ) "envelope: ")
    (match Raft_codec.unseal s ~pos:0 ~len:(String.length s) with
    | Some c -> Raft_codec.read c envelope
    | None -> Error "checksum mismatch")

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
