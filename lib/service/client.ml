type target = Unix_path of string | Tcp of int

(* --- Metrics ----------------------------------------------------------- *)

let m_reconnects = Obs.Metrics.counter ~family:"client" "reconnects_total"
let m_timeouts = Obs.Metrics.counter ~family:"client" "call_timeouts"
let m_retries = Obs.Metrics.counter ~family:"client" "call_retries"

type t = {
  target : target;
  rng : Prob.Rng.t;  (* backoff jitter *)
  timeout : float option;  (* default per-call budget *)
  mutable fd : Unix.file_descr option;
  mutable rcv_bound : float;  (* [fd]'s SO_RCVTIMEO, seconds; 0 = none *)
  mutable snd_bound : float;  (* [fd]'s SO_SNDTIMEO *)
  frames : Frame.decoder;
  chunk : Bytes.t;
}

(* Raised internally; both map to typed [Wire.error_code]s at the
   [call] boundary, never escape to callers. *)
exception Timed_out
exception Lost of string

let sockaddr = function
  | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))

(* --- Connecting with jittered exponential backoff ---------------------- *)

(* The [k]th sleep of a retry schedule: 5 ms doubling per step, capped
   at 500 ms, each draw shortened by up to half from the caller's own
   seeded stream — deterministic per client, decorrelated across a
   fleet of clients hammering a recovering server. *)
let backoff_sleep rng k =
  let initial = 0.005 and multiplier = 2.0 and max_sleep = 0.5 and jitter = 0.5 in
  let base = initial *. (multiplier ** float_of_int k) in
  let capped = Float.min max_sleep base in
  capped *. (1. -. (jitter *. Prob.Rng.float rng))

let connect_once t ~deadline =
  let domain, addr = sockaddr t.target in
  let rec attempt k =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception
        Unix.Unix_error
          ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR
            | Unix.ECONNRESET ),
            _,
            _ )
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        let sleep =
          Float.min (backoff_sleep t.rng k) (deadline -. Unix.gettimeofday ())
        in
        if sleep > 0. then Unix.sleepf sleep;
        attempt (k + 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  attempt 0

let disconnect t =
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  t.rcv_bound <- 0.;
  t.snd_bound <- 0.;
  Frame.reset t.frames

let reconnect t ~deadline =
  disconnect t;
  Obs.Metrics.incr m_reconnects;
  t.fd <- Some (connect_once t ~deadline)

let connect ?(retry_for = 0.) ?(seed = 0) ?timeout target =
  (* Writes to a dead peer must surface as EPIPE, not kill the
     process: same audit as the server side. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let t =
    {
      target;
      rng = Prob.Rng.create seed;
      timeout;
      fd = None;
      rcv_bound = 0.;
      snd_bound = 0.;
      frames = Frame.create ();
      chunk = Bytes.create 65536;
    }
  in
  t.fd <- Some (connect_once t ~deadline:(Unix.gettimeofday () +. retry_for));
  t

let fd_exn t =
  match t.fd with Some fd -> fd | None -> raise (Lost "not connected")

(* --- Deadline-bounded socket IO ---------------------------------------- *)

let set_timeout t fd opt seconds =
  Unix.setsockopt_float fd opt seconds;
  match opt with
  | Unix.SO_RCVTIMEO -> t.rcv_bound <- seconds
  | Unix.SO_SNDTIMEO -> t.snd_bound <- seconds

(* The kernel bounds every wait: a read or write with a deadline runs
   under a socket timeout no longer than the time left, so no call
   parks in an unbounded [Unix.read] or [Unix.write], and a stalled or
   black-holed peer becomes [Timed_out] once the budget runs out. The
   timeout is set only when the one on the socket no longer fits the
   time left, or has just [expired] (EAGAIN) with time left, and then
   to half the time left, so back-to-back calls with one budget set
   none. A zero timeout means none, and the option holds whole
   microseconds, so a budget under 1 ms counts as spent. An operation
   with no deadline clears both options if a call left them set. *)
let arm t fd opt ~deadline ~expired =
  match deadline with
  | Some d ->
      let left = d -. Unix.gettimeofday () in
      if left < 0.001 then raise Timed_out;
      let bound =
        match opt with Unix.SO_RCVTIMEO -> t.rcv_bound | Unix.SO_SNDTIMEO -> t.snd_bound
      in
      if expired || bound = 0. || bound > left then set_timeout t fd opt (left /. 2.)
  | None ->
      if expired then raise Timed_out;
      if t.rcv_bound > 0. || t.snd_bound > 0. then begin
        set_timeout t fd Unix.SO_RCVTIMEO 0.;
        set_timeout t fd Unix.SO_SNDTIMEO 0.
      end

let send_bytes_deadline t ~deadline s =
  let fd = fd_exn t in
  let len = String.length s in
  let rec go off ~expired =
    if off < len then begin
      arm t fd Unix.SO_SNDTIMEO ~deadline ~expired;
      (* One write per check: [Unix.write] would retry a partial write
         under the same timeout, past the deadline. *)
      match Unix.single_write_substring fd s off (len - off) with
      | k -> go (off + k) ~expired:false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off ~expired:false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          go off ~expired:true
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          raise (Lost "connection reset during send")
    end
  in
  go 0 ~expired:false

let send_body_deadline t ~deadline body =
  send_bytes_deadline t ~deadline (Frame.encode body)

let read_chunk t ~deadline ~feed =
  let fd = fd_exn t in
  let rec go ~expired =
    arm t fd Unix.SO_RCVTIMEO ~deadline ~expired;
    match Unix.read fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> raise (Lost "connection closed by server")
    | k -> feed t.chunk k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ~expired:false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        go ~expired:true
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        raise (Lost "connection reset by server")
  in
  go ~expired:false

(* Receive one response body. A framing violation (bad magic, bad
   version, oversized frame) means the stream can no longer be trusted:
   [Lost], and the caller rebuilds the connection. *)
let recv_body_deadline t ~deadline =
  let rec go () =
    match Frame.next t.frames with
    | Ok (Some body) -> body
    | Ok None ->
        read_chunk t ~deadline ~feed:(fun c k -> Frame.feed t.frames c k);
        go ()
    | Error e -> raise (Lost ("corrupted frame: " ^ Frame.error_message e))
  in
  go ()

(* --- Raw frames (the CLI's call, pipelining loops, tests) --------------- *)

(* Every body framed into one buffer and written with (usually) a
   single syscall. This is what makes deep pipelines pay off — the
   per-request cost on the send side drops to a blit. *)
let send t bodies =
  match bodies with
  | [] -> ()
  | [ body ] -> send_body_deadline t ~deadline:None body
  | _ ->
      let buf = Buffer.create 4096 in
      List.iter (fun body -> Buffer.add_string buf (Frame.encode body)) bodies;
      send_bytes_deadline t ~deadline:None (Buffer.contents buf)

let recv ?timeout t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  match recv_body_deadline t ~deadline with
  | body -> Some body
  | exception (Timed_out | Lost _) -> None

(* A peer may answer and close before reading the request — the
   connection-cap goodbye — so a failed send still reads what came. *)
let call_raw t body =
  (try send t [ body ] with Lost _ -> ());
  recv t

(* --- Resilient calls --------------------------------------------------- *)

(* One attempt: send, then read one body, which [parse] must accept as
   a response carrying our id. Anything else on the stream — garbage
   bytes, a broken envelope, a foreign id — means the connection's
   framing can no longer be trusted, so the attempt dies as [Lost] and
   the retry path rebuilds it from a fresh socket. [parse] answers the
   reply's id and what the caller keeps of it, so no reply is parsed
   twice. *)
let attempt_call t ~deadline ~id ~parse body =
  send_body_deadline t ~deadline body;
  let reply = recv_body_deadline t ~deadline in
  match parse reply with
  | Error msg -> raise (Lost ("corrupted response: " ^ msg))
  | Ok (Some rid, answer) when rid = id -> answer
  | Ok (rid, _) ->
      raise
        (Lost
           (Printf.sprintf "response id %s does not match request id %d"
              (match rid with Some i -> string_of_int i | None -> "<none>")
              id))

(* The retry loop shared by [call_line], [call] and [Multi.call]. *)
let exchange ?timeout ?(max_attempts = 3) t ~id ~parse body =
  let timeout = match timeout with Some _ as s -> s | None -> t.timeout in
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let time_left () =
    match deadline with None -> true | Some d -> Unix.gettimeofday () < d
  in
  let reconnect_deadline () =
    (* With no per-call deadline a reconnect still gets a bounded
       window, so a vanished server is a typed error, not a hang. *)
    Option.value deadline ~default:(Unix.gettimeofday () +. 1.)
  in
  let rec attempt k =
    match
      if t.fd = None then reconnect t ~deadline:(reconnect_deadline ());
      attempt_call t ~deadline ~id ~parse body
    with
    | answer -> Ok answer
    | exception Timed_out ->
        (* The reply may still arrive later; keeping the socket would
           let a stale reply answer the next call. Poisoned — drop it. *)
        Obs.Metrics.incr m_timeouts;
        disconnect t;
        Error (Wire.Timeout, "no reply within the per-call deadline")
    | exception Lost msg when k + 1 < max_attempts && time_left () -> (
        Obs.Metrics.incr m_retries;
        disconnect t;
        (* All wire queries are pure and re-answered byte-identically
           (reply cache), so retrying after a drop is safe even if the
           server already processed the first copy. *)
        match reconnect t ~deadline:(reconnect_deadline ()) with
        | () -> attempt (k + 1)
        | exception _ -> Error (Wire.Connection_lost, msg))
    | exception Lost msg ->
        disconnect t;
        Error (Wire.Connection_lost, msg)
    | exception Unix.Unix_error (e, _, _) ->
        disconnect t;
        Error (Wire.Connection_lost, Unix.error_message e)
  in
  attempt 0

(* [call_line] checks the reply with [Wire.response_verdict], which
   builds only its id and an error member; [call] and [Multi.call]
   return the payload, so they parse it. *)
let check_verdict reply =
  Result.map
    (fun (rid, verdict) -> (rid, Result.map (fun () -> reply) verdict))
    (Wire.response_verdict reply)

let parse_whole reply =
  Result.map (fun (r : Wire.response) -> (r.rid, r)) (Wire.parse_response reply)

let call_line ?timeout ?max_attempts t ~id body =
  match exchange ?timeout ?max_attempts t ~id ~parse:check_verdict body with
  | Error e -> Error e
  | Ok verdict -> verdict

let call ?timeout t ~id query =
  match
    exchange ?timeout t ~id ~parse:parse_whole
      (Wire.encode_request { Wire.id; query })
  with
  | Error e -> Error e
  | Ok { Wire.body; _ } -> body

let close t = disconnect t

(* --- Multi-endpoint failover ------------------------------------------- *)

let m_failovers = Obs.Metrics.counter ~family:"client" "endpoint_failovers"
let m_redirects = Obs.Metrics.counter ~family:"client" "leader_redirects"

module Multi = struct
  type client = t

  type t = {
    targets : target array;
    timeout : float option;
    rng : Prob.Rng.t;  (* pause jitter *)
    mutable pinned : int;
    mutable conn : client option;  (* live connection to targets.(pinned) *)
  }

  let create ?timeout targets =
    if targets = [] then invalid_arg "Client.Multi.create: no endpoints";
    {
      targets = Array.of_list targets;
      timeout;
      rng = Prob.Rng.create 0x6d75;
      pinned = 0;
      conn = None;
    }

  let current m = m.pinned

  let drop m =
    (match m.conn with Some c -> close c | None -> ());
    m.conn <- None

  let pin m i =
    if i <> m.pinned then begin
      drop m;
      m.pinned <- i
    end

  let rotate m =
    Obs.Metrics.incr m_failovers;
    pin m ((m.pinned + 1) mod Array.length m.targets)

  let ensure m =
    match m.conn with
    | Some c -> c
    | None ->
        let c = connect ?timeout:m.timeout ~retry_for:0.05 m.targets.(m.pinned) in
        m.conn <- Some c;
        c

  (* Jittered pause that grows per full rotation: tight the first time
     around the ring (a healthy replica is one hop away), backing off
     when the whole deployment is unreachable or leaderless. *)
  let pause m ~deadline k =
    let s = backoff_sleep m.rng (k / Array.length m.targets) in
    let s =
      match deadline with
      | None -> s
      | Some d -> Float.min s (d -. Unix.gettimeofday ())
    in
    if s > 0. then Unix.sleepf s

  let call ?timeout m ~id query =
    let timeout = match timeout with Some _ as s -> s | None -> m.timeout in
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
    let time_left () =
      match deadline with None -> true | Some d -> Unix.gettimeofday () < d
    in
    let remaining () =
      Option.map (fun d -> Float.max 0.01 (d -. Unix.gettimeofday ())) deadline
    in
    let max_attempts = 6 * Array.length m.targets in
    let rec attempt k last_err =
      if k >= max_attempts then Error last_err
      else if not (time_left ()) then
        Error (Wire.Timeout, "failover budget exhausted")
      else begin
        if k > 0 then pause m ~deadline k;
        match ensure m with
        | exception _ ->
            rotate m;
            attempt (k + 1) (Wire.Connection_lost, "endpoint unreachable")
        | c -> (
            let body = Wire.encode_request { Wire.id; query } in
            match
              exchange ?timeout:(remaining ()) ~max_attempts:1 c ~id ~parse:parse_whole
                body
            with
            | Error (Wire.Timeout, msg) ->
                (* The budget is spent; the connection is poisoned (a
                   late reply could answer a later call) — both reasons
                   not to fail over. *)
                drop m;
                Error (Wire.Timeout, msg)
            | Error (_, msg) ->
                drop m;
                rotate m;
                attempt (k + 1) (Wire.Connection_lost, msg)
            | Ok { Wire.body; rhint; _ } -> (
                match body with
                | Ok payload -> Ok payload
                | Error ((Wire.Not_leader, _) as e) ->
                    Obs.Metrics.incr m_redirects;
                    (match rhint with
                    | Some h
                      when h >= 0 && h < Array.length m.targets && h <> m.pinned
                      ->
                        pin m h
                    | _ -> rotate m);
                    attempt (k + 1) e
                | Error
                    ((( Wire.Overloaded | Wire.Shutting_down
                      | Wire.Deadline_exceeded ),
                      _) as e) ->
                    (* Per-replica pressure: another replica can serve
                       the read (and a write retry is safe — the
                       command id dedups). *)
                    rotate m;
                    attempt (k + 1) e
                | Error e ->
                    (* Semantic rejection; every replica answers the
                       same. *)
                    Error e))
      end
    in
    attempt 0 (Wire.Connection_lost, "no endpoint reachable")

  let close m = drop m
end
