type result = {
  clients : int;
  pipeline : int;
  requests_total : int;
  ok : int;
  errors : int;
  errors_by_code : (string * int) list;
  mismatches : int;
  warmup_seconds : float;
  elapsed_seconds : float;
  throughput_rps : float;
  latency : Obs.Metrics.hist_summary;
  server_stats : Obs.Json.t option;
  cache_hit_rate : float option;
}

(* Cheap, pairwise-distinct queries, so each pool slot is its own
   cache entry but no slot costs more than a count-DP over n <= 11 or
   a few fleet-controller ticks over n <= 9. Two analysis slots to
   every fleet slot: analyses are built from real scenarios and
   encoded through [Scenario.to_json], fleet slots run the controller
   closed loop (alternating recommend/ingest, distinct seeds), so the
   generator — and with it the chaos soak — exercises the server's
   actual cache-key canonicalization across every cacheable
   subsystem. *)
let query_pool distinct =
  Array.init distinct (fun i ->
      if i mod 3 = 2 then
        let params =
          {
            Wire.nodes = 5 + (2 * (i mod 3));
            ticks = 4 + (i mod 5);
            seed = 1 + i;
            quorum = None;
            target_nines = 3.;
            dynamic = false;
          }
        in
        if i mod 6 = 5 then Wire.Fleet_ingest params
        else Wire.Fleet_recommend params
      else
        let mix = [ ((2 * (i mod 5)) + 3, 0.01 +. (0.001 *. float_of_int i)) ] in
        match Probcons.Scenario.make ~protocol:"raft" ~mix () with
        | Ok scenario -> Wire.Analyze { scenario }
        | Error msg -> invalid_arg ("Loadgen.query_pool: " ^ msg))

let json_field name = function
  | Obs.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* Outstanding pipelined request: pool slot (== request id) and send
   time. *)
type inflight = { slot : int; sent_at : float }

let run ?(clients = 4) ?(requests = 200) ?(distinct = 8) ?timeout ?duration
    ?(warmup = 0.5) ?(pipeline = 1) ?expected_from ~target () =
  let clients = max 1 clients
  and requests = max 1 requests
  and distinct = max 1 distinct
  and pipeline = max 1 pipeline in
  let warmup = match duration with Some _ -> Float.max 0. warmup | None -> 0. in
  let pool = query_pool distinct in
  let bodies =
    Array.init distinct (fun slot ->
        Wire.encode_request { Wire.id = slot; query = pool.(slot) })
  in
  let registry = Obs.Metrics.create ~enabled:true () in
  let m_latency =
    Obs.Metrics.histogram ~registry ~family:"loadgen" "latency_seconds"
  in
  let ok = Atomic.make 0
  and errors = Atomic.make 0
  and mismatches = Atomic.make 0 in
  (* In duration mode clients run a warmup window first: connections
     settle and the server's cache fills before [recording] flips on
     and outcomes start counting. Fixed-request mode records from the
     first request (legacy behavior). *)
  let recording = Atomic.make (duration = None) in
  let stop = Atomic.make false in
  (* The reference response body for each pool slot; every reply for
     that slot must match it byte for byte. Seeded from a clean direct connection when
     [expected_from] is given (so a proxy between loadgen and server
     cannot corrupt the baseline itself), otherwise from the first
     full reply seen. Identity is checked during warmup too:
     correctness does not wait for the measurement window. *)
  let expected = Array.make distinct None in
  let expected_mutex = Mutex.create () in
  (match expected_from with
  | None -> ()
  | Some direct ->
      let c = Client.connect ~retry_for:5. direct in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Array.iteri
            (fun slot body ->
              match Client.call_line c ~id:slot body with
              | Ok reply -> expected.(slot) <- Some reply
              | Error (code, msg) ->
                  invalid_arg
                    (Printf.sprintf
                       "Loadgen.run: baseline fetch for slot %d failed: %s: %s"
                       slot (Wire.code_string code) msg))
            bodies));
  let check_identical slot body =
    Mutex.lock expected_mutex;
    (match expected.(slot) with
    | None -> expected.(slot) <- Some body
    | Some first -> if not (String.equal first body) then Atomic.incr mismatches);
    Mutex.unlock expected_mutex
  in
  let by_code : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let by_code_mutex = Mutex.create () in
  let record_error code =
    if Atomic.get recording then begin
      Atomic.incr errors;
      let name = Wire.code_string code in
      Mutex.lock by_code_mutex;
      Hashtbl.replace by_code name
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_code name));
      Mutex.unlock by_code_mutex
    end
  in
  let record_ok slot reply latency =
    check_identical slot reply;
    if Atomic.get recording then begin
      Atomic.incr ok;
      Obs.Metrics.observe m_latency latency
    end
  in
  let keep_going sent =
    if Atomic.get stop then false
    else match duration with Some _ -> true | None -> sent < requests
  in
  (* One resilient call at a time: the chaos-soak path, where typed
     error classification and retry semantics matter more than
     throughput. *)
  let serial_loop k =
    let c = Client.connect ~retry_for:5. ~seed:k ?timeout target in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let sent = ref 0 in
        while keep_going !sent do
          let slot = (k + !sent) mod distinct in
          incr sent;
          let t0 = Unix.gettimeofday () in
          match Client.call_line c ~id:slot bodies.(slot) with
          | Ok reply -> record_ok slot reply (Unix.gettimeofday () -. t0)
          | Error (code, _) -> record_error code
        done)
  in
  (* Pipelined: keep up to [pipeline] requests outstanding on one
     connection, matching replies to the oldest in-flight request with
     that id (same-id replies are byte-identical, so FIFO-per-id is
     exact). Raw framing with a bounded receive — a dead or silent
     connection costs the whole window as [connection_lost] and a
     reconnect, never a hang. *)
  let pipelined_loop k =
    let recv_budget = Option.value timeout ~default:30. in
    let connect () = Client.connect ~retry_for:5. ~seed:k target in
    let c = ref (connect ()) in
    let window = ref [] in
    (* FIFO, oldest first *)
    let sent = ref 0 in
    let fail_window code =
      List.iter (fun _ -> record_error code) !window;
      window := []
    in
    let lost () =
      fail_window Wire.Connection_lost;
      Client.close !c;
      match connect () with
      | fresh -> c := fresh
      | exception _ -> Atomic.set stop true
    in
    let take_inflight rid =
      let rec go acc = function
        | [] -> None
        | (e : inflight) :: rest when e.slot = rid ->
            window := List.rev_append acc rest;
            Some e
        | e :: rest -> go (e :: acc) rest
      in
      go [] !window
    in
    let recv_one () =
      match Client.recv ~timeout:recv_budget !c with
      | None -> lost ()
      | Some reply -> (
          match Wire.response_verdict reply with
          | Ok (Some rid, verdict) -> (
              match take_inflight rid with
              | None -> lost () (* foreign id: framing untrustworthy *)
              | Some e -> (
                  match verdict with
                  | Ok () ->
                      record_ok e.slot reply (Unix.gettimeofday () -. e.sent_at)
                  | Error (code, _) -> record_error code))
          | Ok (None, _) | Error _ -> lost ())
    in
    while keep_going !sent do
      (* Fill the window: frame every missing request into one batch
         and send it with a single syscall. *)
      let batch = ref [] and entries = ref [] in
      let missing = ref (pipeline - List.length !window) in
      while !missing > 0 && keep_going !sent do
        let slot = (k + !sent) mod distinct in
        incr sent;
        decr missing;
        batch := bodies.(slot) :: !batch;
        entries := { slot; sent_at = 0. } :: !entries
      done;
      if !batch <> [] then begin
        let now = Unix.gettimeofday () in
        let stamped =
          List.rev_map (fun e -> { e with sent_at = now }) !entries
        in
        match Client.send !c (List.rev !batch) with
        | () -> window := !window @ stamped
        | exception _ -> lost ()
      end;
      (* ...then complete at least one slot before refilling. *)
      if !window <> [] then recv_one ()
    done;
    (* Fixed-request mode drains the tail; duration mode abandons
       whatever is in flight when the window closes. *)
    if duration = None then
      while !window <> [] && not (Atomic.get stop) do
        recv_one ()
      done;
    Client.close !c
  in
  let client_loop k = if pipeline > 1 then pipelined_loop k else serial_loop k in
  let t0 = Unix.gettimeofday () in
  let measured_start = ref t0 in
  let measured_end = ref t0 in
  let threads = List.init clients (fun k -> Thread.create client_loop k) in
  (match duration with
  | None -> ()
  | Some d ->
      if warmup > 0. then Unix.sleepf warmup;
      measured_start := Unix.gettimeofday ();
      Atomic.set recording true;
      Unix.sleepf (Float.max 0.01 d);
      measured_end := Unix.gettimeofday ();
      Atomic.set stop true);
  List.iter Thread.join threads;
  let elapsed =
    match duration with
    | Some _ -> !measured_end -. !measured_start
    | None -> Unix.gettimeofday () -. t0
  in
  let stats_target = Option.value expected_from ~default:target in
  let server_stats =
    match
      let c = Client.connect ~retry_for:1. stats_target in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> Client.call c ~id:0 Wire.Stats)
    with
    | Ok payload -> Some payload
    | Error _ | (exception _) -> None
  in
  let cache_hit_rate =
    Option.bind server_stats (fun stats ->
        match Option.bind (json_field "cache" stats) (json_field "hit_rate") with
        | Some (Obs.Json.Float f) -> Some f
        | Some (Obs.Json.Int i) -> Some (float_of_int i)
        | _ -> None)
  in
  let latency =
    match
      Obs.Metrics.find
        (Obs.Metrics.snapshot ~registry ())
        ~family:"loadgen" ~name:"latency_seconds"
    with
    | Some (Obs.Metrics.Histogram h) -> h
    | _ ->
        { Obs.Metrics.count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.;
          p90 = 0.; p99 = 0. }
  in
  let errors_by_code =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) by_code []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let requests_total = Atomic.get ok + Atomic.get errors in
  {
    clients;
    pipeline;
    requests_total;
    ok = Atomic.get ok;
    errors = Atomic.get errors;
    errors_by_code;
    mismatches = Atomic.get mismatches;
    warmup_seconds = warmup;
    elapsed_seconds = elapsed;
    throughput_rps =
      (if elapsed > 0. then float_of_int requests_total /. elapsed else 0.);
    latency;
    server_stats;
    cache_hit_rate;
  }

let print_report r =
  Printf.printf
    "loadgen: %d clients (%s, pipeline %d), %d requests in %.3fs (%.0f \
     req/s)\n"
    r.clients Wire.protocol_name r.pipeline r.requests_total r.elapsed_seconds
    r.throughput_rps;
  Printf.printf "  ok %d, errors %d, byte-identity mismatches %d\n" r.ok
    r.errors r.mismatches;
  if r.errors_by_code <> [] then begin
    Printf.printf "  errors by code:";
    List.iter (fun (name, n) -> Printf.printf " %s=%d" name n) r.errors_by_code;
    print_newline ()
  end;
  Printf.printf "  latency: p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms\n"
    (1e3 *. r.latency.Obs.Metrics.p50)
    (1e3 *. r.latency.Obs.Metrics.p90)
    (1e3 *. r.latency.Obs.Metrics.p99)
    (1e3 *. r.latency.Obs.Metrics.max);
  match r.cache_hit_rate with
  | Some rate -> Printf.printf "  server cache hit-rate: %.1f%%\n" (100. *. rate)
  | None -> Printf.printf "  server cache hit-rate: unavailable\n"

let to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "probcons-loadgen/3");
      ("wire", Obs.Json.String Wire.protocol_name);
      ("wire_version", Obs.Json.Int Wire.protocol_version);
      ("pipeline", Obs.Json.Int r.pipeline);
      ("clients", Obs.Json.Int r.clients);
      ("requests_total", Obs.Json.Int r.requests_total);
      ("ok", Obs.Json.Int r.ok);
      ("errors", Obs.Json.Int r.errors);
      ( "errors_by_code",
        Obs.Json.Obj
          (List.map (fun (name, n) -> (name, Obs.Json.Int n)) r.errors_by_code)
      );
      ("mismatches", Obs.Json.Int r.mismatches);
      ("warmup_seconds", Obs.Json.number r.warmup_seconds);
      ("elapsed_seconds", Obs.Json.number r.elapsed_seconds);
      ("throughput_rps", Obs.Json.number r.throughput_rps);
      ( "latency_seconds",
        Obs.Json.Obj
          [
            ("count", Obs.Json.Int r.latency.Obs.Metrics.count);
            ("p50", Obs.Json.number r.latency.Obs.Metrics.p50);
            ("p90", Obs.Json.number r.latency.Obs.Metrics.p90);
            ("p99", Obs.Json.number r.latency.Obs.Metrics.p99);
            ("min", Obs.Json.number r.latency.Obs.Metrics.min);
            ("max", Obs.Json.number r.latency.Obs.Metrics.max);
          ] );
      ( "cache_hit_rate",
        match r.cache_hit_rate with
        | Some f -> Obs.Json.number f
        | None -> Obs.Json.Null );
      ( "server_stats",
        match r.server_stats with Some s -> s | None -> Obs.Json.Null );
    ]
