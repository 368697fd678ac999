module Frame = Service.Frame

(* A catch-up AppendEntries carries every command payload it ships, so
   the raft plane's frame bound is larger than the service plane's. *)
let max_envelope_bytes = 4_000_000

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

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

(* One sender per peer link. Messages are fire-and-forget datagrams as
   far as Raft is concerned: when the peer (or its chaos proxy) is
   unreachable the queued batch is dropped and the protocol's retries
   carry the state — exactly the lossy-link model the simulator's
   Network assumes. *)
module Sender = struct
  type t = {
    port : int;
    mu : Mutex.t;
    cv : Condition.t;
    mutable q : string list; (* frames, newest first *)
    dropped : int Atomic.t;
    mutable stopping : bool;
    mutable fd : Unix.file_descr option;
    mutable thread : Thread.t option;
  }

  let close_fd t =
    match t.fd with
    | None -> ()
    | Some fd ->
        t.fd <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())

  let ensure_connected t =
    match t.fd with
    | Some fd -> Some fd
    | None -> (
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        try
          Unix.setsockopt fd TCP_NODELAY true;
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
          t.fd <- Some fd;
          Some fd
        with Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Thread.delay 0.05;
          None)

  let rec loop t =
    Mutex.lock t.mu;
    while t.q = [] && not t.stopping do
      Condition.wait t.cv t.mu
    done;
    let batch = List.rev t.q in
    t.q <- [];
    let stopping = t.stopping in
    Mutex.unlock t.mu;
    if not stopping then (
      (match ensure_connected t with
      | None -> () (* drop the batch; Raft retries *)
      | Some fd -> (
          try write_all fd (String.concat "" batch)
          with Unix.Unix_error _ | Sys_error _ -> close_fd t));
      loop t)

  let start ~port =
    let t =
      {
        port;
        mu = Mutex.create ();
        cv = Condition.create ();
        q = [];
        dropped = Atomic.make 0;
        stopping = false;
        fd = None;
        thread = None;
      }
    in
    t.thread <- Some (Thread.create loop t);
    t

  (* Framed here, on the caller's thread, so an envelope the peer's
     decoder would refuse is dropped and counted before it is queued:
     nothing on the pump or the flush thread can raise over it. *)
  let send t envelope =
    let n = String.length envelope in
    if n = 0 || n > max_envelope_bytes then Atomic.incr t.dropped
    else begin
      let frame = Frame.encode ~max_payload_bytes:max_envelope_bytes envelope in
      Mutex.lock t.mu;
      t.q <- frame :: t.q;
      Condition.signal t.cv;
      Mutex.unlock t.mu
    end

  let dropped t = Atomic.get t.dropped

  let stop t =
    Mutex.lock t.mu;
    t.stopping <- true;
    Condition.signal t.cv;
    Mutex.unlock t.mu;
    Option.iter Thread.join t.thread;
    t.thread <- None;
    close_fd t
end

module Listener = struct
  type t = {
    fd : Unix.file_descr;
    mu : Mutex.t;
    mutable conns : Unix.file_descr list;
    mutable stopping : bool;
    mutable accept_thread : Thread.t option;
    mutable readers : Thread.t list;
  }

  let read_frames t fd deliver =
    let frames = Frame.create ~max_payload_bytes:max_envelope_bytes () in
    let chunk = Bytes.create 65536 in
    let rec drain () =
      match Frame.next frames with
      | Ok None -> ()
      | Ok (Some envelope) ->
          (match envelope_of_line envelope with
          | Ok (src, dst, msg, payloads) -> deliver ~src ~dst msg ~payloads
          | Error _ -> raise Exit);
          drain ()
      | Error _ -> raise Exit
    in
    try
      let rec loop () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then ()
        else (
          Frame.feed frames chunk n;
          drain ();
          loop ())
      in
      loop ()
    with Unix.Unix_error _ | Sys_error _ | Exit -> (
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.mu;
      t.conns <- List.filter (fun c -> c != fd) t.conns;
      Mutex.unlock t.mu)

  let accept_loop t deliver =
    try
      while not t.stopping do
        let conn, _ = Unix.accept t.fd in
        Mutex.lock t.mu;
        if t.stopping then (
          Mutex.unlock t.mu;
          try Unix.close conn with Unix.Unix_error _ -> ())
        else (
          t.conns <- conn :: t.conns;
          t.readers <-
            Thread.create (fun () -> read_frames t conn deliver) () :: t.readers;
          Mutex.unlock t.mu)
      done
    with Unix.Unix_error _ -> ()

  let start ~port ~deliver =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.listen fd 64
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let t =
      {
        fd;
        mu = Mutex.create ();
        conns = [];
        stopping = false;
        accept_thread = None;
        readers = [];
      }
    in
    t.accept_thread <- Some (Thread.create (fun () -> accept_loop t deliver) ());
    t

  let stop t =
    Mutex.lock t.mu;
    t.stopping <- true;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.mu;
    (* Closing the listening socket makes the blocked accept fail. *)
    (try Unix.shutdown t.fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    List.iter
      (fun c ->
        try Unix.shutdown c SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    Option.iter Thread.join t.accept_thread;
    t.accept_thread <- None;
    List.iter Thread.join t.readers;
    t.readers <- []
end
