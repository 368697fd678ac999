module Frame = Service.Frame
module Nonblock = Service.Nonblock

(* A catch-up AppendEntries carries every command payload it ships, so
   the raft plane's frame bound is larger than the service plane's. *)
let max_envelope_bytes = 4_000_000

(* What one link may hold unwritten: two of the largest envelopes. *)
let max_backlog_bytes = 2 * max_envelope_bytes

(* How long a link whose connect or write failed takes no frames. *)
let reconnect_delay = 0.05

let envelope_to_line ~src ~dst msg ~payloads =
  Obs.Json.to_string
    (Obs.Json.Obj
       (("src", Obs.Json.Int src) :: ("dst", Obs.Json.Int dst)
       :: ("msg", Raft_sim.Raft_codec.msg_to_json msg)
       ::
       (if payloads = [] then []
        else
          [
            ( "payloads",
              Obs.Json.List
                (List.map
                   (fun (seq, bytes) ->
                     Obs.Json.List [ Obs.Json.Int seq; Obs.Json.String bytes ])
                   payloads) );
          ])))

let ( let* ) = Result.bind

let int_of j name =
  match Obs.Json.member name j with
  | Some (Obs.Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "envelope: missing int field %S" name)

let envelope_of_line line =
  let* j =
    match Obs.Json.of_string line with
    | Ok j -> Ok j
    | Error msg -> Error ("envelope: " ^ msg)
  in
  let* src = int_of j "src" in
  let* dst = int_of j "dst" in
  let* msg =
    match Obs.Json.member "msg" j with
    | Some mj -> Raft_sim.Raft_codec.msg_of_json mj
    | None -> Error "envelope: missing msg"
  in
  let* payloads =
    match Obs.Json.member "payloads" j with
    | None -> Ok []
    | Some (Obs.Json.List pairs) ->
        List.fold_left
          (fun acc pj ->
            let* acc = acc in
            match pj with
            | Obs.Json.List [ Obs.Json.Int seq; Obs.Json.String bytes ]
              when seq >= 0 ->
                Ok ((seq, bytes) :: acc)
            | _ -> Error "envelope: bad payload pair")
          (Ok []) pairs
        |> Result.map List.rev
    | Some _ -> Error "envelope: bad payloads"
  in
  Ok (src, dst, msg, payloads)

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
