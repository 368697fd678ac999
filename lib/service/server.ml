type reply_error = {
  code : Wire.error_code;
  msg : string;
  hint : int option;
}

type handler = Wire.query -> (Obs.Json.t, reply_error) result

(* The default worker dispatch: the pure router, no redirect hints. *)
let router_handler query =
  match Router.handle query with
  | Ok json -> Ok json
  | Error (code, msg) -> Error { code; msg; hint = None }

type config = {
  socket_path : string option;
  tcp_port : int option;
  workers : int;
  queue_depth : int;
  cache_capacity : int;
  deadline_seconds : float;
  idle_timeout_seconds : float;
  max_connections : int;
  max_pipeline : int;
  handler : handler;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    workers = Parallel.Pool.default ();
    queue_depth = 64;
    cache_capacity = 1024;
    deadline_seconds = 5.;
    idle_timeout_seconds = 300.;
    max_connections = 1024;
    max_pipeline = 128;
    handler = router_handler;
  }

(* A connection whose reply backlog exceeds this many bytes stops
   being read until the kernel drains it — the write-side backpressure
   bound that keeps a slow consumer from buffering the world. *)
let out_high_watermark = 256 * 1024

(* Reply slices below this size are coalesced into the reactor's
   scratch buffer so one syscall carries many small replies; larger
   slices (big payloads) are written directly from their own bytes. *)
let direct_write_threshold = 4096

let scratch_bytes = 64 * 1024

(* --- Metrics ----------------------------------------------------------- *)

let m_connections = Obs.Metrics.counter ~family:"service" "connections_total"
let m_requests = Obs.Metrics.counter ~family:"service" "requests_total"
let m_ok = Obs.Metrics.counter ~family:"service" "responses_ok"
let m_error = Obs.Metrics.counter ~family:"service" "responses_error"
let m_overload = Obs.Metrics.counter ~family:"service" "rejected_overload"
let m_deadline = Obs.Metrics.counter ~family:"service" "rejected_deadline"
let m_queue_depth = Obs.Metrics.gauge ~family:"service" "queue_depth"
let m_idle_closed = Obs.Metrics.counter ~family:"service" "connections_idle_closed"

let m_conn_rejected =
  Obs.Metrics.counter ~family:"service" "connections_rejected"
let m_queue_wait = Obs.Metrics.histogram ~family:"service" "queue_wait_seconds"
let m_handle = Obs.Metrics.histogram ~family:"service" "handle_seconds"

(* Reactor observability: loop turnover, how loaded each select wakeup
   is, how deep connections pipeline, and how often the write side hits
   kernel backpressure. *)
let m_loops = Obs.Metrics.counter ~family:"service" "reactor_loop_iterations"
let m_ready_fds = Obs.Metrics.histogram ~family:"service" "reactor_ready_fds"

let m_pipeline_depth =
  Obs.Metrics.histogram ~family:"service" "reactor_pipeline_depth"

let m_write_stalls =
  Obs.Metrics.counter ~family:"service" "reactor_write_stalls"

(* --- Connections -------------------------------------------------------- *)

type slice = { buf : string; mutable off : int }

(* Owned exclusively by the reactor thread — no locks. [key] is unique
   for the server's lifetime (never reused), so a completion arriving
   after the connection died looks up nothing and is dropped. *)
type conn = {
  fd : Unix.file_descr;
  key : int;
  frames : Frame.decoder;
  out : slice Queue.t;
  mutable out_bytes : int;
  mutable outstanding : int;  (* jobs dispatched, replies not yet queued *)
  mutable last_read : float;
  mutable throttled : bool;  (* read-throttle edge, for the stall count *)
}

type job = {
  conn_key : int;
  id : int;
  query : Wire.query;
  enqueued_at : float;
}

type queue = {
  jobs : job Queue.t;
  qm : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
  mutable accepting : bool;
}

type t = {
  config : config;
  listeners : Unix.file_descr list;
  queue : queue;
  cache : Cache.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  completions : (int * string) Queue.t;  (* conn key, reply bytes *)
  completions_mutex : Mutex.t;
  mutable reactor_thread : Thread.t option;
  mutable worker_host : Thread.t option;
  conns : (int, conn) Hashtbl.t;  (* reactor-thread only *)
  (* Raw-request fast path, reactor-thread only: exact request body
     bytes -> full rendered reply frame. A byte-identical request names
     the same query and id, and cacheable replies are deterministic, so
     the reply bytes can be replayed without parsing anything. Filled
     from the cache-hit path (which guarantees the entry is cacheable
     and already rendered); reset wholesale when full. *)
  raw : (string, string) Hashtbl.t;
  mutable next_conn : int;
  n_conns : int Atomic.t;
  started_at : float;
  stopped : bool Atomic.t;
  draining : bool Atomic.t;  (* stop requested: listeners close, queue drains *)
  finishing : bool Atomic.t;  (* workers joined: flush replies and exit *)
  scratch : Bytes.t;
  read_chunk : Bytes.t;
  (* Server-local tallies for the [stats] query: available even when
     the global metrics registry is disabled. *)
  n_requests : int Atomic.t;
  n_ok : int Atomic.t;
  n_error : int Atomic.t;
  n_overload : int Atomic.t;
  n_deadline : int Atomic.t;
  n_loops : int Atomic.t;
  n_write_stalls : int Atomic.t;
  max_pipeline_seen : int Atomic.t;
}

let connection_count t = Atomic.get t.n_conns

(* --- Queue -------------------------------------------------------------- *)

let try_push q job =
  Mutex.lock q.qm;
  let outcome =
    if not q.accepting then Error Wire.Shutting_down
    else if Queue.length q.jobs >= q.capacity then Error Wire.Overloaded
    else begin
      Queue.push job q.jobs;
      Obs.Metrics.set m_queue_depth (Queue.length q.jobs);
      Condition.signal q.nonempty;
      Ok ()
    end
  in
  Mutex.unlock q.qm;
  outcome

let pop q =
  Mutex.lock q.qm;
  while Queue.is_empty q.jobs && q.accepting do
    Condition.wait q.nonempty q.qm
  done;
  let job =
    if Queue.is_empty q.jobs then None
    else begin
      let j = Queue.pop q.jobs in
      Obs.Metrics.set m_queue_depth (Queue.length q.jobs);
      Some j
    end
  in
  Mutex.unlock q.qm;
  job

let close_queue q =
  Mutex.lock q.qm;
  q.accepting <- false;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.qm

(* --- Reply rendering ----------------------------------------------------- *)

(* One frame per reply: header, then [prefix payload suffix]. The
   cache memoizes the result per id, so an id-stable client pays this
   assembly once per cache entry and the write path gets a single
   preassembled slice afterwards. *)
let render_ok ~id payload =
  let prefix = Wire.ok_prefix ~id in
  let body_len =
    String.length prefix + String.length payload + String.length Wire.ok_suffix
  in
  let b = Buffer.create (Frame.header_bytes + body_len) in
  Buffer.add_string b (Frame.header ~payload_bytes:body_len);
  Buffer.add_string b prefix;
  Buffer.add_string b payload;
  Buffer.add_string b Wire.ok_suffix;
  Buffer.contents b

let render_error ?hint ~id code msg =
  Frame.encode (Wire.encode_error ?hint ~id code msg)

(* --- Payloads ------------------------------------------------------------ *)

let reactor_stats t =
  Obs.Json.Obj
    [
      ("loop_iterations", Obs.Json.Int (Atomic.get t.n_loops));
      ("write_backpressure_stalls", Obs.Json.Int (Atomic.get t.n_write_stalls));
      ("max_pipeline_depth", Obs.Json.Int (Atomic.get t.max_pipeline_seen));
      ("connections", Obs.Json.Int (connection_count t));
    ]

let stats_payload t =
  let hits, misses, evictions = Cache.stats t.cache in
  let looked_up = hits + misses in
  let depth =
    Mutex.lock t.queue.qm;
    let d = Queue.length t.queue.jobs in
    Mutex.unlock t.queue.qm;
    d
  in
  Obs.Json.Obj
    [
      ("wire", Obs.Json.String Wire.protocol_name);
      ("workers", Obs.Json.Int t.config.workers);
      ( "requests",
        Obs.Json.Obj
          [
            ("total", Obs.Json.Int (Atomic.get t.n_requests));
            ("ok", Obs.Json.Int (Atomic.get t.n_ok));
            ("error", Obs.Json.Int (Atomic.get t.n_error));
            ("overloaded", Obs.Json.Int (Atomic.get t.n_overload));
            ("deadline_exceeded", Obs.Json.Int (Atomic.get t.n_deadline));
          ] );
      ( "queue",
        Obs.Json.Obj
          [
            ("capacity", Obs.Json.Int t.queue.capacity);
            ("depth", Obs.Json.Int depth);
          ] );
      ("reactor", reactor_stats t);
      ( "cache",
        Obs.Json.Obj
          [
            ("capacity", Obs.Json.Int (Cache.capacity t.cache));
            ("entries", Obs.Json.Int (Cache.length t.cache));
            ("hits", Obs.Json.Int hits);
            ("misses", Obs.Json.Int misses);
            ("evictions", Obs.Json.Int evictions);
            ( "hit_rate",
              Obs.Json.number
                (if looked_up = 0 then 0.
                 else float_of_int hits /. float_of_int looked_up) );
          ] );
    ]

(* The health-check payload: answered inline by the reactor without
   touching the queue, so it stays truthful precisely when the server
   is overloaded or draining. Deliberately cheap. *)
let ping_payload t =
  let depth, accepting =
    Mutex.lock t.queue.qm;
    let d = Queue.length t.queue.jobs and a = t.queue.accepting in
    Mutex.unlock t.queue.qm;
    (d, a)
  in
  Obs.Json.Obj
    [
      ("wire", Obs.Json.String Wire.protocol_name);
      ("uptime_seconds", Obs.Json.number (Unix.gettimeofday () -. t.started_at));
      ( "queue",
        Obs.Json.Obj
          [
            ("capacity", Obs.Json.Int t.queue.capacity);
            ("depth", Obs.Json.Int depth);
          ] );
      ("connections", Obs.Json.Int (connection_count t));
      ("accepting", Obs.Json.Bool accepting);
      ("reactor", reactor_stats t);
    ]

(* --- Reactor: write side ------------------------------------------------- *)

let enqueue_out conn bytes =
  Queue.push { buf = bytes; off = 0 } conn.out;
  conn.out_bytes <- conn.out_bytes + String.length bytes

(* Consume [n] written bytes off the front of the slice queue. *)
let consume_out conn n =
  conn.out_bytes <- conn.out_bytes - n;
  let remaining = ref n in
  while !remaining > 0 do
    let s = Queue.peek conn.out in
    let rem = String.length s.buf - s.off in
    if !remaining >= rem then begin
      ignore (Queue.pop conn.out);
      remaining := !remaining - rem
    end
    else begin
      s.off <- s.off + !remaining;
      remaining := 0
    end
  done

exception Conn_dead

(* Flush as much of [conn.out] as the kernel will take. Small slices
   are coalesced through the scratch buffer (one syscall carries many
   replies — the pipelining win); slices at or above the threshold are
   written directly from their own string, zero-copy from the reply
   cache. Raises [Conn_dead] when the peer is gone; returns when the
   queue is empty or the kernel pushes back. *)
let flush_conn t conn =
  let stalled () =
    Obs.Metrics.incr m_write_stalls;
    Atomic.incr t.n_write_stalls
  in
  let rec go () =
    if not (Queue.is_empty conn.out) then begin
      let front = Queue.peek conn.out in
      let front_rem = String.length front.buf - front.off in
      if front_rem >= direct_write_threshold then (
        match Unix.write_substring conn.fd front.buf front.off front_rem with
        | k ->
            consume_out conn k;
            if k = front_rem then go () else stalled ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            stalled ()
        | exception Unix.Unix_error _ -> raise Conn_dead)
      else begin
        (* Coalesce consecutive small slices into scratch. *)
        let filled = ref 0 in
        (try
           Queue.iter
             (fun s ->
               let rem = String.length s.buf - s.off in
               if
                 rem >= direct_write_threshold
                 || !filled + rem > scratch_bytes
               then raise Exit;
               Bytes.blit_string s.buf s.off t.scratch !filled rem;
               filled := !filled + rem)
             conn.out
         with Exit -> ());
        match Unix.write conn.fd t.scratch 0 !filled with
        | k ->
            consume_out conn k;
            if k = !filled then go () else stalled ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            stalled ()
        | exception Unix.Unix_error _ -> raise Conn_dead
      end
    end
  in
  go ()

(* --- Reactor: request handling ------------------------------------------ *)

let count_error t code =
  Obs.Metrics.incr m_error;
  Atomic.incr t.n_error;
  match code with
  | Wire.Overloaded ->
      Obs.Metrics.incr m_overload;
      Atomic.incr t.n_overload
  | Wire.Deadline_exceeded ->
      Obs.Metrics.incr m_deadline;
      Atomic.incr t.n_deadline
  | _ -> ()

let reply_error t conn ~id code msg =
  count_error t code;
  enqueue_out conn (render_error ~id code msg)

let reply_ok_json t conn ~id json =
  Obs.Metrics.incr m_ok;
  Atomic.incr t.n_ok;
  enqueue_out conn (render_ok ~id (Obs.Json.to_string json))

(* One parsed request body. Errors, [ping], [stats] and cache hits are
   answered inline on the reactor thread; only cache misses are
   dispatched to the worker lanes. *)
let raw_memo_capacity = 8192

let handle_body t conn body =
  Obs.Metrics.incr m_requests;
  Atomic.incr t.n_requests;
  match Hashtbl.find_opt t.raw body with
  | Some reply ->
      Cache.count_hit t.cache;
      Obs.Metrics.incr m_ok;
      Atomic.incr t.n_ok;
      enqueue_out conn reply
  | None ->
  match Wire.parse_request body with
  | Error (id, code, msg) -> reply_error t conn ~id code msg
  | Ok { Wire.id; query = Wire.Ping } -> reply_ok_json t conn ~id (ping_payload t)
  | Ok { Wire.id; query = Wire.Stats } ->
      reply_ok_json t conn ~id (stats_payload t)
  | Ok { Wire.id; query } -> (
      let dispatch () =
        let job =
          { conn_key = conn.key; id; query; enqueued_at = Unix.gettimeofday () }
        in
        match try_push t.queue job with
        | Ok () ->
            conn.outstanding <- conn.outstanding + 1;
            Obs.Metrics.observe m_pipeline_depth (float_of_int conn.outstanding);
            let rec bump () =
              let seen = Atomic.get t.max_pipeline_seen in
              if
                conn.outstanding > seen
                && not
                     (Atomic.compare_and_set t.max_pipeline_seen seen
                        conn.outstanding)
              then bump ()
            in
            bump ()
        | Error Wire.Overloaded ->
            reply_error t conn ~id:(Some id) Wire.Overloaded
              (Printf.sprintf "request queue full (%d deep)" t.queue.capacity)
        | Error code ->
            reply_error t conn ~id:(Some id) code "server draining"
      in
      if not (Wire.cacheable query) then dispatch ()
      else
        match Cache.find t.cache (Wire.canonical_key query) with
        | None -> dispatch ()
        | Some entry ->
            (* Hit: reply straight off the reactor, bypassing the
               worker lanes entirely. The memoized rendering makes the
               whole reply one preassembled slice for id-stable
               clients. *)
            Obs.Metrics.incr m_ok;
            Atomic.incr t.n_ok;
            let bytes =
              Cache.rendered entry ~id ~render:(fun () ->
                  render_ok ~id (Cache.payload entry))
            in
            if Hashtbl.length t.raw >= raw_memo_capacity then
              Hashtbl.reset t.raw;
            Hashtbl.replace t.raw body bytes;
            enqueue_out conn bytes)

(* Feed freshly read bytes through the connection's decoder and handle
   every complete body. Returns [false] when the connection must die
   (a framing violation is unrecoverable). *)
let ingest t conn chunk len =
  Frame.feed conn.frames chunk len;
  let rec drain () =
    match Frame.next conn.frames with
    | Ok (Some body) ->
        handle_body t conn body;
        drain ()
    | Ok None -> true
    | Error e ->
        (* Answer with an unattributable typed error, flush what we
           can, and drop the connection. *)
        reply_error t conn ~id:None Wire.Parse_error (Frame.error_message e);
        false
  in
  drain ()

(* --- Reactor: lifecycle -------------------------------------------------- *)

let close_conn t conn =
  Hashtbl.remove t.conns conn.key;
  Atomic.decr t.n_conns;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let drop_conn t conn = close_conn t conn

(* Over the cap: answer [overloaded] in one frame and close. The single
   small write cannot block on a fresh socket's empty buffer. *)
let reject_connection fd =
  Obs.Metrics.incr m_conn_rejected;
  let frame = render_error ~id:None Wire.Overloaded "connection limit reached" in
  let len = String.length frame in
  (try
     let rec go off =
       if off < len then go (off + Unix.write_substring fd frame off (len - off))
     in
     go 0
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_ready t listener =
  let rec go () =
    match Unix.accept ~cloexec:true listener with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        if connection_count t >= t.config.max_connections then begin
          reject_connection fd;
          go ()
        end
        else begin
          Obs.Metrics.incr m_connections;
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let key = t.next_conn in
          t.next_conn <- key + 1;
          let conn =
            {
              fd;
              key;
              frames = Frame.create ();
              out = Queue.create ();
              out_bytes = 0;
              outstanding = 0;
              last_read = Unix.gettimeofday ();
              throttled = false;
            }
          in
          Hashtbl.replace t.conns key conn;
          Atomic.incr t.n_conns;
          go ()
        end
  in
  go ()

let drain_pipe fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Deliver every queued worker completion to its connection (dropped
   silently when the connection died first). *)
let deliver_completions t =
  let batch =
    Mutex.lock t.completions_mutex;
    let q = Queue.create () in
    Queue.transfer t.completions q;
    Mutex.unlock t.completions_mutex;
    q
  in
  Queue.iter
    (fun (key, bytes) ->
      match Hashtbl.find_opt t.conns key with
      | None -> ()
      | Some conn ->
          conn.outstanding <- conn.outstanding - 1;
          enqueue_out conn bytes)
    batch

let read_conn t conn =
  match Unix.read conn.fd t.read_chunk 0 (Bytes.length t.read_chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t conn
  | 0 -> drop_conn t conn
  | k -> (
      conn.last_read <- Unix.gettimeofday ();
      match ingest t conn t.read_chunk k with
      | true -> (
          (* Opportunistic flush: inline replies (hits, errors, pings)
             go out without waiting for another select round. *)
          try flush_conn t conn with Conn_dead -> drop_conn t conn)
      | false ->
          (* Unrecoverable framing: push out any last error bytes,
             then close. *)
          (try flush_conn t conn with Conn_dead -> ());
          if Hashtbl.mem t.conns conn.key then drop_conn t conn
      | exception _ -> drop_conn t conn)

(* Whether the reactor would read from this connection right now; the
   [throttled] edge counts transitions into backpressure. *)
let want_read t conn =
  let throttle =
    conn.outstanding >= t.config.max_pipeline
    || conn.out_bytes >= out_high_watermark
  in
  if throttle && not conn.throttled then begin
    conn.throttled <- true;
    Obs.Metrics.incr m_write_stalls;
    Atomic.incr t.n_write_stalls
  end
  else if not throttle then conn.throttled <- false;
  not throttle

let reactor_loop t =
  let listeners_closed = ref false in
  let flush_deadline = ref None in
  let rec loop () =
    Obs.Metrics.incr m_loops;
    Atomic.incr t.n_loops;
    let draining = Atomic.get t.draining in
    let finishing = Atomic.get t.finishing in
    if draining && not !listeners_closed then begin
      listeners_closed := true;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.listeners
    end;
    if finishing && !flush_deadline = None then begin
      deliver_completions t;
      flush_deadline := Some (Unix.gettimeofday () +. 2.)
    end;
    let done_finishing () =
      finishing
      && (Hashtbl.fold (fun _ c acc -> acc && Queue.is_empty c.out) t.conns true
         || (match !flush_deadline with
            | Some d -> Unix.gettimeofday () > d
            | None -> false))
    in
    if done_finishing () then begin
      let live = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter (fun c -> close_conn t c) live
    end
    else begin
      let now = Unix.gettimeofday () in
      let idle = t.config.idle_timeout_seconds in
      (* Idle sweep: close connections silent past the budget with no
         replies in flight or pending. *)
      if idle > 0. then begin
        let stale =
          Hashtbl.fold
            (fun _ c acc ->
              if
                now -. c.last_read > idle
                && c.outstanding = 0
                && Queue.is_empty c.out
              then c :: acc
              else acc)
            t.conns []
        in
        List.iter
          (fun c ->
            Obs.Metrics.incr m_idle_closed;
            drop_conn t c)
          stale
      end;
      let reads = ref [ t.stop_r; t.wake_r ] in
      if not (draining || !listeners_closed) then
        reads := t.listeners @ !reads;
      let ready_conns = ref [] in
      let writes = ref [] in
      Hashtbl.iter
        (fun _ c ->
          if (not finishing) && want_read t c then begin
            reads := c.fd :: !reads;
            ready_conns := c :: !ready_conns
          end;
          if not (Queue.is_empty c.out) then writes := c :: !writes)
        t.conns;
      let timeout =
        if finishing then 0.05
        else if idle > 0. && Hashtbl.length t.conns > 0 then
          (* Wake for the next idle deadline; clamp to keep the sweep
             responsive without spinning. *)
          Float.max 0.05 (Float.min 30. (idle /. 4.))
        else -1.
      in
      match
        Unix.select !reads (List.map (fun c -> c.fd) !writes) [] timeout
      with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* A listener or pipe vanished under us mid-drain; take
             another turn and re-derive the sets. *)
          loop ()
      | readable, writable, _ ->
          Obs.Metrics.observe m_ready_fds
            (float_of_int (List.length readable + List.length writable));
          let stop_hit = List.mem t.stop_r readable in
          if stop_hit then drain_pipe t.stop_r;
          if List.mem t.wake_r readable then drain_pipe t.wake_r;
          deliver_completions t;
          if not (draining || !listeners_closed) then
            List.iter
              (fun l -> if List.mem l readable then accept_ready t l)
              t.listeners;
          List.iter
            (fun c ->
              if Hashtbl.mem t.conns c.key && List.mem c.fd readable then
                read_conn t c)
            !ready_conns;
          List.iter
            (fun c ->
              if Hashtbl.mem t.conns c.key && List.mem c.fd writable then
                try flush_conn t c with Conn_dead -> drop_conn t c)
            !writes;
          loop ()
    end
  in
  loop ();
  (* Exit: every connection is closed; drop whatever completions
     remain. *)
  Mutex.lock t.completions_mutex;
  Queue.clear t.completions;
  Mutex.unlock t.completions_mutex

(* --- Workers ------------------------------------------------------------- *)

let wake t =
  Mutex.lock t.completions_mutex;
  let first = Queue.is_empty t.completions in
  Mutex.unlock t.completions_mutex;
  ignore first;
  match Unix.write_substring t.wake_w "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* Pipe full: a wakeup is already pending. *)
      ()
  | exception Unix.Unix_error _ -> ()

let complete t ~conn_key bytes =
  Mutex.lock t.completions_mutex;
  Queue.push (conn_key, bytes) t.completions;
  Mutex.unlock t.completions_mutex;
  wake t

let process t (job : job) =
  let now = Unix.gettimeofday () in
  Obs.Metrics.observe m_queue_wait (now -. job.enqueued_at);
  if now -. job.enqueued_at > t.config.deadline_seconds then begin
    count_error t Wire.Deadline_exceeded;
    complete t ~conn_key:job.conn_key
      (render_error ~id:(Some job.id) Wire.Deadline_exceeded
         (Printf.sprintf "queued longer than the %gs deadline"
            t.config.deadline_seconds))
  end
  else
    match Obs.Span.time m_handle (fun () -> t.config.handler job.query) with
    | Ok json ->
        let rendered = Obs.Json.to_string json in
        if Wire.cacheable job.query then
          Cache.add t.cache (Wire.canonical_key job.query) rendered;
        Obs.Metrics.incr m_ok;
        Atomic.incr t.n_ok;
        complete t ~conn_key:job.conn_key (render_ok ~id:job.id rendered)
    | Error { code; msg; hint } ->
        count_error t code;
        complete t ~conn_key:job.conn_key
          (render_error ?hint ~id:(Some job.id) code msg)

let worker_loop t =
  let rec go () =
    match pop t.queue with
    | None -> ()
    | Some job ->
        process t job;
        go ()
  in
  go ()

(* --- Lifecycle ----------------------------------------------------------- *)

let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 64;
  fd

let start config =
  let config =
    {
      config with
      workers = max 1 config.workers;
      queue_depth = max 1 config.queue_depth;
      max_connections = max 1 config.max_connections;
      max_pipeline = max 1 config.max_pipeline;
    }
  in
  if config.socket_path = None && config.tcp_port = None then
    invalid_arg "Server.start: configure a socket path or a TCP port";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listeners =
    (match config.socket_path with Some p -> [ listen_unix p ] | None -> [])
    @ (match config.tcp_port with Some p -> [ listen_tcp p ] | None -> [])
  in
  List.iter Unix.set_nonblock listeners;
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Unix.set_nonblock stop_r;
  let t =
    {
      config;
      listeners;
      queue =
        {
          jobs = Queue.create ();
          qm = Mutex.create ();
          nonempty = Condition.create ();
          capacity = config.queue_depth;
          accepting = true;
        };
      cache = Cache.create ~capacity:config.cache_capacity ();
      stop_r;
      stop_w;
      wake_r;
      wake_w;
      completions = Queue.create ();
      completions_mutex = Mutex.create ();
      reactor_thread = None;
      worker_host = None;
      conns = Hashtbl.create 64;
      raw = Hashtbl.create 1024;
      next_conn = 0;
      n_conns = Atomic.make 0;
      started_at = Unix.gettimeofday ();
      stopped = Atomic.make false;
      draining = Atomic.make false;
      finishing = Atomic.make false;
      scratch = Bytes.create scratch_bytes;
      read_chunk = Bytes.create (64 * 1024);
      n_requests = Atomic.make 0;
      n_ok = Atomic.make 0;
      n_error = Atomic.make 0;
      n_overload = Atomic.make 0;
      n_deadline = Atomic.make 0;
      n_loops = Atomic.make 0;
      n_write_stalls = Atomic.make 0;
      max_pipeline_seen = Atomic.make 0;
    }
  in
  (* All worker lanes live inside one Pool.map call: each lane is a
     real domain running [worker_loop] until the queue drains at
     shutdown. Inside a lane the pool's nesting guard makes any
     Analysis-level parallelism sequential, so request-level
     parallelism is the only fan-out and engine labels stay
     deterministic. The lanes never touch sockets — they compute,
     render, and hand bytes back to the reactor. *)
  t.worker_host <-
    Some
      (Thread.create
         (fun () ->
           ignore
             (Parallel.Pool.map ~domains:config.workers config.workers (fun _ ->
                  worker_loop t)))
         ());
  t.reactor_thread <- Some (Thread.create (fun () -> reactor_loop t) ());
  t

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    (* 1. Drain phase: stop accepting connections and new work. The
       reactor closes the listeners; queued jobs keep flowing to the
       worker lanes; fresh requests are answered [shutting_down]. *)
    Atomic.set t.draining true;
    (try ignore (Unix.write_substring t.stop_w "x" 0 1) with _ -> ());
    close_queue t.queue;
    Option.iter Thread.join t.worker_host;
    (* 2. Finish phase: every completion is in the queue; the reactor
       delivers them, flushes every connection (bounded), closes all
       sockets and exits. *)
    Atomic.set t.finishing true;
    (try ignore (Unix.write_substring t.stop_w "x" 0 1) with _ -> ());
    Option.iter Thread.join t.reactor_thread;
    (match t.config.socket_path with
    | Some path -> ( try Unix.unlink path with _ -> ())
    | None -> ());
    (try Unix.close t.stop_r with _ -> ());
    (try Unix.close t.stop_w with _ -> ());
    (try Unix.close t.wake_r with _ -> ());
    try Unix.close t.wake_w with _ -> ()
  end

let wait_for_signal () =
  let stop_requested = Atomic.make false in
  let previous =
    List.map
      (fun s ->
        ( s,
          Sys.signal s
            (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)) ))
      [ Sys.sigint; Sys.sigterm ]
  in
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.05
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun (s, h) -> try Sys.set_signal s h with _ -> ()) previous

let run config =
  let t = start config in
  wait_for_signal ();
  stop t
