type reply_error = {
  code : Wire.error_code;
  msg : string;
  hint : int option;
}

type handler =
  Wire.query -> reply:((Obs.Json.t, reply_error) result -> unit) -> unit

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
  }

type plane = {
  fds : unit -> Unix.file_descr list * Unix.file_descr list;
  timeout : unit -> float;
  step : readable:Unix.file_descr list -> unit;
  owns : Wire.query -> bool;
  handle : handler;
  stop : reply_error -> unit;
}

(* A connection whose reply backlog exceeds this many bytes stops
   being read until the kernel drains it — the write-side backpressure
   bound that keeps a slow consumer from buffering the world. *)
let out_high_watermark = 256 * 1024

(* The count-DP cells the loop spends per iteration answering cache
   misses itself. A lane round trip costs the loop two wake-ups and a
   thread hand-off, about 100 us on a 2-vCPU host; an analysis this
   size takes about 20 us to compute and render there, so answering it
   on the loop is cheaper than sending it away. The bound is per
   iteration, so a pipelined burst of small analyses cannot hold the
   loop: past it, that iteration's misses go to the lanes. *)
let loop_cell_budget = 512

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

(* Owned exclusively by the reactor thread — no locks. [key] is unique
   for the server's lifetime (never reused), so a completion arriving
   after the connection died looks up nothing and is dropped. *)
type conn = {
  fd : Unix.file_descr;
  key : int;
  frames : Frame.decoder;
  out : Nonblock.queue;
  mutable outstanding : int;  (* requests taken, replies not yet queued *)
  mutable last_read : float;
  mutable throttled : bool;  (* read-throttle edge, for the stall count *)
  mutable dirty : bool;  (* given bytes this iteration: in [t.to_flush] *)
}

type job = {
  conn_key : int;
  id : int;
  query : Wire.query;
  enqueued_at : float;
}

(* What a reply counts for, settled by the reactor: an answer, with the
   canonical key and payload to admit when its query is cacheable, or
   an error's code. *)
type tally = Answered of (string * string) option | Failed of Wire.error_code

type queue = {
  jobs : job Queue.t;
  qm : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
  mutable accepting : bool;
}

type t = {
  config : config;
  plane : plane option;
  listeners : Unix.file_descr list;
  queue : queue;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  completions : (int * string * tally) Queue.t;  (* conn key, bytes, tally *)
  completions_mutex : Mutex.t;
  mutable wake_open : bool;  (* under [completions_mutex] *)
  mutable reactor_thread : Thread.t option;
  mutable worker_host : Thread.t option;
  (* The reactor thread owns everything below but the atomics: the
     reply cache, the connections, the raw memo and the tallies. *)
  cache : Cache.t;
  conns : (int, conn) Hashtbl.t;
  mutable to_flush : conn list;  (* the dirty conns *)
  (* Raw-request fast path: exact request body bytes -> full rendered
     reply frame, the one reply memo. A byte-identical request names
     the same query and id, and cacheable replies are deterministic, so
     the reply bytes can be replayed without parsing anything. Filled
     from the cache-hit path (which guarantees the query is cacheable);
     reset wholesale when full. *)
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
  mutable n_requests : int;
  mutable n_ok : int;
  mutable n_error : int;
  mutable n_overload : int;
  mutable n_deadline : int;
  mutable n_on_loop : int;  (* cache misses the loop answered itself *)
  mutable cells_left : int;  (* of [loop_cell_budget], this iteration *)
  mutable n_loops : int;
  mutable n_write_stalls : int;
  mutable max_pipeline_seen : int;
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

(* One frame per reply: header, then [prefix payload suffix]. The raw
   memo keeps a hit's result per exact request body, so a repeated
   request pays this assembly once and the write path gets a single
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
      ("loop_iterations", Obs.Json.Int t.n_loops);
      ("write_backpressure_stalls", Obs.Json.Int t.n_write_stalls);
      ("max_pipeline_depth", Obs.Json.Int t.max_pipeline_seen);
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
            ("total", Obs.Json.Int t.n_requests);
            ("ok", Obs.Json.Int t.n_ok);
            ("error", Obs.Json.Int t.n_error);
            ("overloaded", Obs.Json.Int t.n_overload);
            ("deadline_exceeded", Obs.Json.Int t.n_deadline);
            ("on_loop", Obs.Json.Int t.n_on_loop);
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

(* Flush as much of [conn.out] as the kernel will take, coalescing
   small replies (the pipelining win). Raises [Nonblock.Closed] when
   the peer is gone. *)
let flush_conn t conn =
  if not (Nonblock.flush conn.out conn.fd ~scratch:t.scratch) then begin
    Obs.Metrics.incr m_write_stalls;
    t.n_write_stalls <- t.n_write_stalls + 1
  end

let mark_dirty t conn =
  if not conn.dirty then begin
    conn.dirty <- true;
    t.to_flush <- conn :: t.to_flush
  end

(* Every reply goes through here, and the iteration that queues it
   writes it ([flush_dirty]): no reply waits for another [select]. *)
let push t conn bytes =
  Nonblock.push conn.out bytes;
  mark_dirty t conn

(* --- Reactor: request handling ------------------------------------------ *)

let count_ok t =
  Obs.Metrics.incr m_ok;
  t.n_ok <- t.n_ok + 1

let count_error t code =
  Obs.Metrics.incr m_error;
  t.n_error <- t.n_error + 1;
  match code with
  | Wire.Overloaded ->
      Obs.Metrics.incr m_overload;
      t.n_overload <- t.n_overload + 1
  | Wire.Deadline_exceeded ->
      Obs.Metrics.incr m_deadline;
      t.n_deadline <- t.n_deadline + 1
  | _ -> ()

(* Every lane and plane reply is settled here, on the reactor, before
   it is pushed and whether or not its connection is still alive. *)
let settle t = function
  | Answered admit ->
      Option.iter (fun (key, payload) -> Cache.add t.cache key payload) admit;
      count_ok t
  | Failed code -> count_error t code

let reply_error t conn ~id code msg =
  count_error t code;
  push t conn (render_error ~id code msg)

let reply_ok_json t conn ~id json =
  count_ok t;
  push t conn (render_ok ~id (Obs.Json.to_string json))

(* An answer as reply bytes and the tally they count for. *)
let render_result ~id query = function
  | Ok json ->
      let payload = Obs.Json.to_string json in
      let admit =
        if Wire.cacheable query then Some (Wire.canonical_key query, payload)
        else None
      in
      (render_ok ~id payload, Answered admit)
  | Error { code; msg; hint } ->
      (render_error ?hint ~id:(Some id) code msg, Failed code)

(* The one compute path: a lane and the loop both answer a cache miss
   here, so either sends the same bytes and makes the same tally. *)
let compute ~id query =
  let span = Obs.Span.start m_handle in
  let result =
    Result.map_error
      (fun (code, msg) -> { code; msg; hint = None })
      (Router.handle query)
  in
  Obs.Span.stop span;
  render_result ~id query result

(* The cells a cache miss would cost the loop: only an analysis whose
   default strategy is one count-DP pass has a cost known up front. *)
let loop_cells = function
  | Wire.Analyze { scenario } -> Probcons.Registry.count_dp_cells scenario
  | _ -> None

let track_outstanding t conn =
  conn.outstanding <- conn.outstanding + 1;
  Obs.Metrics.observe m_pipeline_depth (float_of_int conn.outstanding);
  if conn.outstanding > t.max_pipeline_seen then
    t.max_pipeline_seen <- conn.outstanding

(* A plane query runs on this thread. The plane answers it now or from
   a later step, always on this thread, so the reply goes straight onto
   the connection. *)
let answer_on_loop t plane conn ~id query =
  if Atomic.get t.draining then
    reply_error t conn ~id:(Some id) Wire.Shutting_down "server draining"
  else begin
    track_outstanding t conn;
    let span = Obs.Span.start m_handle in
    let answered = ref false in
    plane.handle query ~reply:(fun result ->
        if not !answered then begin
          answered := true;
          Obs.Span.stop span;
          conn.outstanding <- conn.outstanding - 1;
          let bytes, tally = render_result ~id query result in
          settle t tally;
          if Hashtbl.mem t.conns conn.key then push t conn bytes
        end)
  end

(* A cache miss: answered here while this iteration's cell budget
   covers it, otherwise queued for a lane. *)
let answer_miss t conn ~id query =
  if Atomic.get t.draining then
    reply_error t conn ~id:(Some id) Wire.Shutting_down "server draining"
  else
    match loop_cells query with
    | Some cells when cells <= t.cells_left ->
        t.cells_left <- t.cells_left - cells;
        t.n_on_loop <- t.n_on_loop + 1;
        let bytes, tally = compute ~id query in
        settle t tally;
        push t conn bytes
    | _ -> (
        let job =
          { conn_key = conn.key; id; query; enqueued_at = Unix.gettimeofday () }
        in
        match try_push t.queue job with
        | Ok () -> track_outstanding t conn
        | Error Wire.Overloaded ->
            reply_error t conn ~id:(Some id) Wire.Overloaded
              (Printf.sprintf "request queue full (%d deep)" t.queue.capacity)
        | Error code -> reply_error t conn ~id:(Some id) code "server draining")

(* One parsed request body. Errors, [ping], [stats], cache hits, the
   plane's queries and small analyses are answered on the reactor
   thread; every other cache miss is dispatched to the worker lanes. *)
let raw_memo_capacity = 8192

let handle_body t conn body =
  Obs.Metrics.incr m_requests;
  t.n_requests <- t.n_requests + 1;
  match Hashtbl.find_opt t.raw body with
  | Some reply ->
      Cache.count_hit t.cache;
      count_ok t;
      push t conn reply
  | None ->
  match Wire.parse_request body with
  | Error (id, code, msg) -> reply_error t conn ~id code msg
  | Ok { Wire.id; query = Wire.Ping } -> reply_ok_json t conn ~id (ping_payload t)
  | Ok { Wire.id; query = Wire.Stats } ->
      reply_ok_json t conn ~id (stats_payload t)
  | Ok { Wire.id; query } -> (
      match t.plane with
      | Some plane when plane.owns query -> answer_on_loop t plane conn ~id query
      | _ ->
      if not (Wire.cacheable query) then answer_miss t conn ~id query
      else
        match Cache.find t.cache (Wire.canonical_key query) with
        | None -> answer_miss t conn ~id query
        | Some payload ->
            (* Hit: reply straight off the reactor, bypassing the
               worker lanes entirely, and memoize the reply for the
               exact request bytes. *)
            count_ok t;
            let bytes = render_ok ~id payload in
            if Hashtbl.length t.raw >= raw_memo_capacity then
              Hashtbl.reset t.raw;
            Hashtbl.replace t.raw body bytes;
            push t conn bytes)

(* --- Reactor: lifecycle -------------------------------------------------- *)

let close_conn t conn =
  Hashtbl.remove t.conns conn.key;
  Atomic.decr t.n_conns;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Over the cap: answer [overloaded] in one frame and close. The single
   small write fits a fresh socket's empty buffer whole. *)
let reject_connection fd =
  Obs.Metrics.incr m_conn_rejected;
  let frame = render_error ~id:None Wire.Overloaded "connection limit reached" in
  (try ignore (Unix.write_substring fd frame 0 (String.length frame))
   with Unix.Unix_error _ -> ());
  Nonblock.close fd

let accept_ready t listener =
  let rec go () =
    match Nonblock.accept listener with
    | None -> ()
    | Some fd ->
        if connection_count t >= t.config.max_connections then begin
          reject_connection fd;
          go ()
        end
        else begin
          Obs.Metrics.incr m_connections;
          let key = t.next_conn in
          t.next_conn <- key + 1;
          let conn =
            {
              fd;
              key;
              frames = Frame.create ();
              out = Nonblock.queue ();
              outstanding = 0;
              last_read = Unix.gettimeofday ();
              throttled = false;
              dirty = false;
            }
          in
          Hashtbl.replace t.conns key conn;
          Atomic.incr t.n_conns;
          go ()
        end
  in
  go ()

(* Settle every reply the lanes posted, then hand it to its connection,
   in order, unless the connection died first. *)
let deliver_completions t =
  let batch =
    Mutex.lock t.completions_mutex;
    let q = Queue.create () in
    Queue.transfer t.completions q;
    Mutex.unlock t.completions_mutex;
    q
  in
  Queue.iter
    (fun (conn_key, bytes, tally) ->
      settle t tally;
      match Hashtbl.find_opt t.conns conn_key with
      | None -> ()
      | Some conn ->
          conn.outstanding <- conn.outstanding - 1;
          push t conn bytes)
    batch

(* Write every connection given bytes this iteration or reported
   writable, once each. *)
let flush_dirty t =
  let conns = t.to_flush in
  t.to_flush <- [];
  List.iter
    (fun c ->
      c.dirty <- false;
      if Hashtbl.mem t.conns c.key then
        try flush_conn t c with Nonblock.Closed -> close_conn t c)
    conns

let read_conn t conn =
  match
    Nonblock.read_frames conn.fd ~chunk:t.read_chunk conn.frames
      (handle_body t conn)
  with
  | `Again -> ()
  | `Closed -> close_conn t conn
  | `Read -> conn.last_read <- Unix.gettimeofday ()
  | `Bad e ->
      (* Unrecoverable framing: answer with an unattributable typed
         error, push out what we can, then close. *)
      reply_error t conn ~id:None Wire.Parse_error (Frame.error_message e);
      (try flush_conn t conn with Nonblock.Closed -> ());
      close_conn t conn
  | exception _ -> close_conn t conn

(* Whether the reactor would read from this connection right now; the
   [throttled] edge counts transitions into backpressure. *)
let want_read t conn =
  let throttle =
    conn.outstanding >= t.config.max_pipeline
    || Nonblock.queued conn.out >= out_high_watermark
  in
  if throttle && not conn.throttled then begin
    conn.throttled <- true;
    Obs.Metrics.incr m_write_stalls;
    t.n_write_stalls <- t.n_write_stalls + 1
  end
  else if not throttle then conn.throttled <- false;
  not throttle

(* The earlier of two [select] timeouts; a negative one is no bound. *)
let earliest a b = if a < 0. then b else if b < 0. then a else Float.min a b

let reactor_loop t =
  let listeners_closed = ref false in
  let close_listeners () =
    if not !listeners_closed then begin
      listeners_closed := true;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.listeners
    end
  in
  let flush_deadline = ref None in
  let failure = ref None in
  (* The plane stops before any connection closes: it answers every
     write it still holds with [err], and the flush below carries those
     replies out. *)
  let finish err =
    deliver_completions t;
    Option.iter (fun plane -> plane.stop err) t.plane;
    flush_deadline := Some (Unix.gettimeofday () +. 2.)
  in
  let rec loop () =
    Obs.Metrics.incr m_loops;
    t.n_loops <- t.n_loops + 1;
    t.cells_left <- loop_cell_budget;
    let draining = Atomic.get t.draining in
    if draining then close_listeners ();
    if Atomic.get t.finishing && !flush_deadline = None then
      finish
        { code = Wire.Shutting_down; msg = "server stopped"; hint = None };
    let finishing = !flush_deadline <> None in
    let done_finishing () =
      finishing
      && (Hashtbl.fold (fun _ c acc -> acc && Nonblock.queued c.out = 0) t.conns true
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
                && Nonblock.queued c.out = 0
              then c :: acc
              else acc)
            t.conns []
        in
        List.iter
          (fun c ->
            Obs.Metrics.incr m_idle_closed;
            close_conn t c)
          stale
      end;
      let plane = if finishing then None else t.plane in
      let plane_reads, plane_writes =
        match plane with Some p -> p.fds () | None -> ([], [])
      in
      let reads = ref (t.wake_r :: plane_reads) in
      if not !listeners_closed then reads := t.listeners @ !reads;
      let ready_conns = ref [] in
      let writes = ref [] in
      Hashtbl.iter
        (fun _ c ->
          if (not finishing) && want_read t c then begin
            reads := c.fd :: !reads;
            ready_conns := c :: !ready_conns
          end;
          if Nonblock.queued c.out > 0 then writes := c :: !writes)
        t.conns;
      let timeout =
        if finishing then 0.05
        else if idle > 0. && Hashtbl.length t.conns > 0 then
          (* Wake for the next idle deadline; clamp to keep the sweep
             responsive without spinning. *)
          Float.max 0.05 (Float.min 30. (idle /. 4.))
        else -1.
      in
      let timeout =
        match plane with Some p -> earliest timeout (p.timeout ()) | None -> timeout
      in
      match
        Unix.select !reads
          (List.rev_append (List.map (fun c -> c.fd) !writes) plane_writes)
          [] timeout
      with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* A listener or pipe vanished under us mid-drain; take
             another turn and re-derive the sets. *)
          loop ()
      | readable, writable, _ ->
          Obs.Metrics.observe m_ready_fds
            (float_of_int (List.length readable + List.length writable));
          if List.mem t.wake_r readable then Nonblock.drain t.wake_r;
          deliver_completions t;
          if not !listeners_closed then
            List.iter
              (fun l -> if List.mem l readable then accept_ready t l)
              t.listeners;
          List.iter
            (fun c ->
              if Hashtbl.mem t.conns c.key && List.mem c.fd readable then
                read_conn t c)
            !ready_conns;
          (match plane with
          | None -> ()
          | Some p -> (
              try p.step ~readable
              with e ->
                (* A failed plane takes the server down with it, so its
                   clients fail over instead of waiting on sockets no
                   thread serves. *)
                failure := Some (e, Printexc.get_raw_backtrace ());
                close_listeners ();
                finish
                  {
                    code = Wire.Internal;
                    msg = "plane failed: " ^ Printexc.to_string e;
                    hint = None;
                  }));
          List.iter
            (fun c -> if List.mem c.fd writable then mark_dirty t c)
            !writes;
          flush_dirty t;
          loop ()
    end
  in
  loop ();
  (* Exit: every connection is closed; settle whatever completions
     remain, and drop their bytes. *)
  deliver_completions t;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure

(* --- Workers ------------------------------------------------------------- *)

(* A lane's reply and its tally, for the loop to settle and write. The
   wake byte is written under the mutex that [stop] holds while it
   closes the pipe, so a late reply is dropped, never announced on a
   closed (or reused) descriptor. *)
let post t ~conn_key (bytes, tally) =
  Mutex.lock t.completions_mutex;
  if t.wake_open then begin
    Queue.push (conn_key, bytes, tally) t.completions;
    Nonblock.wake t.wake_w
  end;
  Mutex.unlock t.completions_mutex

let process t (job : job) =
  let now = Unix.gettimeofday () in
  Obs.Metrics.observe m_queue_wait (now -. job.enqueued_at);
  if now -. job.enqueued_at > t.config.deadline_seconds then
    post t ~conn_key:job.conn_key
      ( render_error ~id:(Some job.id) Wire.Deadline_exceeded
          (Printf.sprintf "queued longer than the %gs deadline"
             t.config.deadline_seconds),
        Failed Wire.Deadline_exceeded )
  else post t ~conn_key:job.conn_key (compute ~id:job.id job.query)

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

let start ?plane config =
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
    @ (match config.tcp_port with Some p -> [ Nonblock.listen_tcp p ] | None -> [])
  in
  List.iter Unix.set_nonblock listeners;
  let wake_r, wake_w = Nonblock.pipe () in
  let t =
    {
      config;
      plane;
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
      wake_r;
      wake_w;
      completions = Queue.create ();
      completions_mutex = Mutex.create ();
      wake_open = true;
      reactor_thread = None;
      worker_host = None;
      conns = Hashtbl.create 64;
      to_flush = [];
      raw = Hashtbl.create 1024;
      next_conn = 0;
      n_conns = Atomic.make 0;
      started_at = Unix.gettimeofday ();
      stopped = Atomic.make false;
      draining = Atomic.make false;
      finishing = Atomic.make false;
      scratch = Bytes.create (64 * 1024);
      read_chunk = Bytes.create (64 * 1024);
      n_requests = 0;
      n_ok = 0;
      n_error = 0;
      n_overload = 0;
      n_deadline = 0;
      n_on_loop = 0;
      cells_left = loop_cell_budget;
      n_loops = 0;
      n_write_stalls = 0;
      max_pipeline_seen = 0;
    }
  in
  (* All worker lanes live inside one Pool.map call: each lane is a
     real domain running [worker_loop] until the queue drains at
     shutdown. Inside a lane the pool's nesting guard makes any
     Analysis-level parallelism sequential, so request-level
     parallelism is the only fan-out and engine labels stay
     deterministic. The lanes never touch sockets, the cache or the
     tallies — they compute, render, and hand bytes and a tally back to
     the reactor. *)
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
    Nonblock.wake t.wake_w;
    close_queue t.queue;
    Option.iter Thread.join t.worker_host;
    (* 2. Finish phase: every completion is in the queue; the reactor
       delivers them, stops the plane, flushes every connection
       (bounded), closes all sockets and exits. *)
    Atomic.set t.finishing true;
    Nonblock.wake t.wake_w;
    Option.iter Thread.join t.reactor_thread;
    (match t.config.socket_path with
    | Some path -> ( try Unix.unlink path with _ -> ())
    | None -> ());
    Mutex.lock t.completions_mutex;
    t.wake_open <- false;
    Nonblock.close t.wake_r;
    Nonblock.close t.wake_w;
    Mutex.unlock t.completions_mutex
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
