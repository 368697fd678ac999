(* The query service: wire protocol, LRU cache, router determinism,
   and an end-to-end server exercise over a real Unix-domain socket. *)

open Service

(* --- Helpers ------------------------------------------------------- *)

let fresh_cache ~capacity =
  (* A private registry keeps cache metrics out of the global one. *)
  Cache.create ~registry:(Obs.Metrics.create ()) ~capacity ()

(* Threaded tests must not be able to hang the whole suite: run the
   body on its own thread and fail loudly if it overruns. *)
let with_watchdog ?(timeout = 60.) f =
  let outcome = ref None in
  let th =
    Thread.create
      (fun () ->
        outcome := Some (try Ok (f ()) with e -> Error e))
      ()
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match !outcome with
    | Some (Ok ()) -> Thread.join th
    | Some (Error e) -> Thread.join th; raise e
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "test timed out after %gs" timeout
        else begin
          Thread.delay 0.02;
          wait ()
        end
  in
  wait ()

let temp_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "probcons-test-%d-%d.sock" (Unix.getpid ()) !counter)

let code = Alcotest.testable (Fmt.of_to_string Wire.code_string) ( = )

(* --- Wire ----------------------------------------------------------- *)

let scenario ?byz_fraction ?quorums ~protocol mix =
  match Probcons.Scenario.make ?byz_fraction ?quorums ~protocol ~mix () with
  | Ok s -> s
  | Error msg -> Alcotest.failf "bad test scenario: %s" msg

let analyze ?byz_fraction ?quorums ~protocol mix =
  Wire.Analyze { scenario = scenario ?byz_fraction ?quorums ~protocol mix }

let all_queries =
  [
    analyze ~protocol:"raft" [ (5, 0.01) ];
    analyze ~protocol:"pbft" [ (4, 0.02); (3, 0.08) ];
    analyze ~byz_fraction:0.5 ~quorums:[ ("q_vc", 4) ] ~protocol:"raft"
      [ (5, 0.01) ];
    analyze ~protocol:"upright" [ (7, 0.02) ];
    Wire.Availability
      { system = Wire.Majority 5; probs = Wire.Uniform 0.01 };
    Wire.Availability
      {
        system = Wire.Threshold { n = 7; k = 5 };
        probs = Wire.Per_node [ 0.01; 0.02; 0.03; 0.04; 0.05; 0.06; 0.07 ];
      };
    Wire.Availability { system = Wire.Wheel 6; probs = Wire.Uniform 0.05 };
    Wire.Availability
      { system = Wire.Grid { rows = 3; cols = 4 }; probs = Wire.Uniform 0.02 };
    Wire.Committee { target_nines = 4.; groups = [ (4, 0.005); (6, 0.08) ] };
    Wire.Quorum_size { target_live_nines = 3.; groups = [ (9, 0.02) ] };
    Wire.Markov { n = 5; quorum = None; afr = 0.04; mttr_hours = 24. };
    Wire.Markov { n = 7; quorum = Some 4; afr = 0.08; mttr_hours = 12. };
    Wire.Plan { target_nines = 3.; groups = [ (3, 0.001); (8, 0.02) ] };
    Wire.Stats;
    Wire.Ping;
  ]

let test_wire_roundtrip () =
  List.iteri
    (fun i query ->
      let line = Wire.encode_request { Wire.id = i; query } in
      match Wire.parse_request line with
      | Ok { Wire.id; query = parsed } ->
          Alcotest.(check int) "id echoes" i id;
          Alcotest.(check bool)
            (Printf.sprintf "query %d round-trips" i)
            true (parsed = query)
      | Error (_, c, msg) ->
          Alcotest.failf "query %d failed to parse: %s (%s)" i
            (Wire.code_string c) msg)
    all_queries

(* An error reply's code reads back as the code it was sent with; a
   code no version defines reads as [internal]. *)
let test_wire_error_codes () =
  let read_code body =
    match Wire.parse_response body with
    | Ok { Wire.body = Error (c, _); _ } -> Some c
    | Ok _ | Error _ -> None
  in
  List.iter
    (fun c ->
      Alcotest.(check (option code))
        (Wire.code_string c) (Some c)
        (read_code (Wire.encode_error ~id:(Some 1) c "m")))
    [
      Wire.Parse_error; Wire.Unsupported_version; Wire.Bad_request;
      Wire.Unknown_kind; Wire.Overloaded; Wire.Deadline_exceeded;
      Wire.Shutting_down; Wire.Internal; Wire.Timeout; Wire.Connection_lost;
    ];
  Alcotest.(check (option code)) "unknown" (Some Wire.Internal)
    (read_code {|{"v": 3, "id": 1, "error": {"code": "nope", "msg": ""}}|})

let expect_error line want ~id =
  match Wire.parse_request line with
  | Ok _ -> Alcotest.failf "%S should not parse" line
  | Error (got_id, got, _) ->
      Alcotest.check code (Printf.sprintf "code for %S" line) want got;
      Alcotest.(check (option int)) (Printf.sprintf "id for %S" line) id got_id

let test_wire_parse_errors () =
  expect_error "this is not json" Wire.Parse_error ~id:None;
  expect_error "[1, 2]" Wire.Bad_request ~id:None;
  expect_error {|{"id": 3, "kind": "analyze"}|} Wire.Unsupported_version
    ~id:(Some 3);
  expect_error {|{"v": 99, "id": 4, "kind": "stats"}|} Wire.Unsupported_version
    ~id:(Some 4);
  (* Downlevel bodies are answered, not upgraded. *)
  expect_error {|{"v": 1, "id": 5, "kind": "analyze", "params": {"n": 5, "p": 0.01}}|}
    Wire.Unsupported_version ~id:(Some 5);
  expect_error {|{"v": 2, "kind": "stats"}|} Wire.Unsupported_version
    ~id:(Some 0);
  expect_error {|{"v": 3, "id": 9, "kind": "frobnicate"}|} Wire.Unknown_kind
    ~id:(Some 9);
  expect_error {|{"v": 3, "id": 5, "kind": "analyze", "params": {"n": 0, "p": 0.5}}|}
    Wire.Bad_request ~id:(Some 5);
  expect_error {|{"v": 3, "kind": "analyze", "params": {"n": 3, "p": 1.5}}|}
    Wire.Bad_request ~id:(Some 0);
  expect_error
    {|{"v": 3, "kind": "analyze", "params": {"n": 201, "p": 0.01}}|}
    Wire.Bad_request ~id:(Some 0);
  expect_error
    {|{"v": 3, "kind": "availability", "params": {"system": {"kind": "grid", "rows": 5, "cols": 5}, "p": 0.1}}|}
    Wire.Bad_request ~id:(Some 0);
  (* Huge group counts must be rejected per group: summing them first
     would wrap native ints negative and slip past the fleet bound. *)
  expect_error
    {|{"v": 3, "kind": "analyze", "params": {"mix": [[4611686018427387903, 0.5], [2, 0.5]]}}|}
    Wire.Bad_request ~id:(Some 0);
  expect_error
    {|{"v": 3, "kind": "analyze", "params": {"mix": [[1e30, 0.5]]}}|}
    Wire.Bad_request ~id:(Some 0);
  (* Grid dimensions are bounded individually so rows * cols cannot
     wrap past the enumeration limit. *)
  expect_error
    {|{"v": 3, "kind": "availability", "params": {"system": {"kind": "grid", "rows": 3037000500, "cols": 3037000500}, "p": 0.1}}|}
    Wire.Bad_request ~id:(Some 0);
  (* Scenario-level rejections happen at parse time, before a worker
     sees the request: unknown protocols and unknown quorum keys are
     bad_request. *)
  expect_error
    {|{"v": 3, "id": 6, "kind": "analyze", "params": {"protocol": "paxos", "n": 3, "p": 0.01}}|}
    Wire.Bad_request ~id:(Some 6);
  expect_error
    {|{"v": 3, "kind": "analyze", "params": {"n": 5, "p": 0.01, "quorums": {"bogus": 3}}}|}
    Wire.Bad_request ~id:(Some 0);
  expect_error
    {|{"v": 3, "kind": "analyze", "params": {"protocol": "stake", "n": 40, "p": 0.01}}|}
    Wire.Bad_request ~id:(Some 0);
  (* Over-long bodies are rejected before JSON parsing. *)
  let huge = "{\"v\": 3, \"pad\": \"" ^ String.make Frame.max_payload_bytes 'x' ^ "\"}" in
  expect_error huge Wire.Parse_error ~id:None

let parse_ok line =
  match Wire.parse_request line with
  | Ok r -> r
  | Error (_, c, msg) ->
      Alcotest.failf "%S: %s (%s)" line (Wire.code_string c) msg

let test_wire_canonical_key () =
  (* The n/p shorthand and the equivalent one-group mix share a key,
     so semantically identical requests hit one cache entry. *)
  let a =
    parse_ok {|{"v": 3, "kind": "analyze", "params": {"n": 5, "p": 0.01}}|}
  in
  let b =
    parse_ok {|{"v": 3, "id": 7, "kind": "analyze", "params": {"mix": [[5, 0.01]]}}|}
  in
  Alcotest.(check string)
    "shorthand and mix collapse" (Wire.canonical_key a.Wire.query)
    (Wire.canonical_key b.Wire.query);
  let c =
    parse_ok {|{"v": 3, "kind": "analyze", "params": {"n": 5, "p": 0.02}}|}
  in
  Alcotest.(check bool)
    "different p, different key" true
    (Wire.canonical_key a.Wire.query <> Wire.canonical_key c.Wire.query);
  Alcotest.(check bool) "stats not cacheable" false (Wire.cacheable Wire.Stats);
  Alcotest.(check bool) "analyze cacheable" true (Wire.cacheable a.Wire.query)

let test_wire_responses () =
  let line = Wire.encode_ok ~id:7 ~payload:{|{"x": 1}|} in
  (match Wire.parse_response line with
  | Ok { Wire.rid = Some 7; body = Ok (Obs.Json.Obj [ ("x", Obs.Json.Int 1) ]); _ }
    ->
      ()
  | _ -> Alcotest.failf "unexpected decode of %S" line);
  let line = Wire.encode_error ~id:(Some 3) Wire.Overloaded "queue full" in
  (match Wire.parse_response line with
  | Ok { Wire.rid = Some 3; body = Error (Wire.Overloaded, "queue full"); _ } -> ()
  | _ -> Alcotest.failf "unexpected decode of %S" line);
  match Wire.parse_response {|{"v": 3, "id": 1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "neither ok nor error should not decode"

(* The reply check builds only the id and an error member, so what it
   allocates does not depend on an ok payload: per call, as many minor
   words for a 1,000-field payload of floats and strings as for a
   1-field one. The least of three rounds of 1,000 calls counts, so a
   stray thread's allocation cannot fail the test. *)
let test_response_verdict_allocation () =
  let reply fields =
    Wire.encode_ok ~id:7
      ~payload:
        (Obs.Json.to_string
           (Obs.Json.Obj
              (List.init fields (fun i ->
                   ( Printf.sprintf "f%d" i,
                     match i mod 3 with
                     | 0 -> Obs.Json.Float (float_of_int i +. 0.25)
                     | 1 -> Obs.Json.String (Printf.sprintf "s%d" i)
                     | _ -> Obs.Json.String (Printf.sprintf "s\"%d\"" i) )))))
  in
  let words body =
    let round () =
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Wire.response_verdict body)
      done;
      (Gc.minor_words () -. before) /. 1000.
    in
    List.fold_left Float.min infinity [ round (); round (); round () ]
  in
  let small = reply 1 and large = reply 1000 in
  (match Wire.response_verdict large with
  | Ok (Some 7, Ok ()) -> ()
  | Ok _ | Error _ -> Alcotest.fail "the 1,000-field reply did not check as ok id 7");
  Alcotest.(check (float 0.)) "minor words per call, 1,000 fields vs 1"
    (words small) (words large)

(* --- Cache ----------------------------------------------------------- *)

let test_cache_eviction_order () =
  let c = fresh_cache ~capacity:2 in
  Cache.add c "a" "1";
  Cache.add c "b" "2";
  (* Touch [a] so [b] is now least recently used. *)
  Alcotest.(check (option string)) "a hits" (Some "1") (Cache.find c "a");
  Cache.add c "c" "3";
  Alcotest.(check (option string)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option string)) "a survives" (Some "1") (Cache.find c "a");
  Alcotest.(check (option string)) "c present" (Some "3") (Cache.find c "c");
  let _, _, evictions = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 evictions

let test_cache_capacity () =
  let c = fresh_cache ~capacity:3 in
  for i = 1 to 10 do
    Cache.add c (string_of_int i) (string_of_int i)
  done;
  Alcotest.(check int) "bounded" 3 (Cache.length c);
  let _, _, evictions = Cache.stats c in
  Alcotest.(check int) "evictions" 7 evictions;
  (* The three most recent insertions survive. *)
  List.iter
    (fun k ->
      Alcotest.(check (option string)) ("key " ^ k) (Some k) (Cache.find c k))
    [ "8"; "9"; "10" ]

let test_cache_hit_stats () =
  let c = fresh_cache ~capacity:4 in
  Alcotest.(check (option string)) "cold miss" None (Cache.find c "k");
  Cache.add c "k" "v";
  Alcotest.(check (option string)) "hit" (Some "v") (Cache.find c "k");
  Alcotest.(check (option string)) "hit again" (Some "v") (Cache.find c "k");
  let hits, misses, evictions = Cache.stats c in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "evictions" 0 evictions

let test_cache_disabled () =
  let c = fresh_cache ~capacity:0 in
  Cache.add c "k" "v";
  Alcotest.(check (option string)) "never stores" None (Cache.find c "k");
  Alcotest.(check int) "empty" 0 (Cache.length c);
  let hits, misses, _ = Cache.stats c in
  Alcotest.(check int) "no hits" 0 hits;
  Alcotest.(check int) "misses counted" 1 misses

let test_cache_readd () =
  let c = fresh_cache ~capacity:2 in
  Cache.add c "k" "first";
  Cache.add c "other" "o";
  (* Re-adding keeps the first value but refreshes recency... *)
  Cache.add c "k" "second";
  Alcotest.(check (option string)) "first value wins" (Some "first")
    (Cache.find c "k");
  (* ...so the next eviction takes [other], not [k]. *)
  Cache.add c "third" "t";
  Alcotest.(check (option string)) "other evicted" None (Cache.find c "other");
  Alcotest.(check (option string)) "k survives" (Some "first") (Cache.find c "k")

(* --- Router ----------------------------------------------------------- *)

let json_field name = function
  | Obs.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let handle_ok query =
  match Router.handle query with
  | Ok payload -> payload
  | Error (c, msg) ->
      Alcotest.failf "router error: %s (%s)" (Wire.code_string c) msg

let test_router_matches_direct () =
  let payload = handle_ok (analyze ~protocol:"raft" [ (5, 0.02) ]) in
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:0.0 ~n:5 ~p:0.02 () in
  let direct =
    Probcons.Analysis.run
      (Probcons.Raft_model.protocol (Probcons.Raft_model.default 5))
      fleet
  in
  (match json_field "p_safe_live" payload with
  | Some j ->
      Alcotest.(check (float 0.))
        "p_safe_live matches direct Analysis.run"
        direct.Probcons.Analysis.p_safe_live
        (Option.get (Obs.Json.to_float j))
  | None -> Alcotest.fail "payload lacks p_safe_live");
  match json_field "engine" payload with
  | Some (Obs.Json.String e) ->
      Alcotest.(check string) "same engine" direct.Probcons.Analysis.engine e
  | _ -> Alcotest.fail "payload lacks engine"

let test_router_deterministic () =
  List.iter
    (fun query ->
      if query <> Wire.Stats && query <> Wire.Ping then
        let a = Obs.Json.to_string (handle_ok query) in
        let b = Obs.Json.to_string (handle_ok query) in
        Alcotest.(check string) "byte-identical payloads" a b)
    all_queries

let test_router_stats_rejected () =
  (match Router.handle Wire.Stats with
  | Error (Wire.Internal, _) -> ()
  | _ -> Alcotest.fail "stats must not be routed");
  match Router.handle Wire.Ping with
  | Error (Wire.Internal, _) -> ()
  | _ -> Alcotest.fail "ping must not be routed"

let test_router_all_models () =
  (* The service answers analyze for every registry entry, and the
     payload names the protocol it dispatched to. *)
  List.iter
    (fun name ->
      let payload =
        handle_ok
          (Wire.Analyze
             {
               scenario =
                 Probcons.Scenario.uniform ~protocol:name ~n:5 ~p:0.01 ();
             })
      in
      (match json_field "engine" payload with
      | Some (Obs.Json.String _) -> ()
      | _ -> Alcotest.failf "%s payload lacks engine" name);
      match json_field "p_safe_live" payload with
      | Some j when Obs.Json.to_float j <> None -> ()
      | _ -> Alcotest.failf "%s payload lacks p_safe_live" name)
    (Probcons.Registry.names ())

let test_router_byz_override () =
  (* byz_fraction is a scenario field now, not a hardcoded constant:
     overriding it must change the answer for a crash-tolerant model. *)
  let payload byz =
    handle_ok (analyze ?byz_fraction:byz ~protocol:"raft" [ (5, 0.05) ])
  in
  let p_safe payload =
    match Option.bind (json_field "p_safe" payload) Obs.Json.to_float with
    | Some v -> v
    | None -> Alcotest.fail "payload lacks p_safe"
  in
  Alcotest.(check (float 0.))
    "default byz matches explicit 0.0"
    (p_safe (payload None))
    (p_safe (payload (Some 0.0)));
  Alcotest.(check bool) "full-byz override hurts safety" true
    (p_safe (payload (Some 1.0)) < p_safe (payload None))

let test_router_markov_default_quorum () =
  let payload =
    handle_ok (Wire.Markov { n = 5; quorum = None; afr = 0.04; mttr_hours = 24. })
  in
  match json_field "quorum" payload with
  | Some (Obs.Json.Int q) -> Alcotest.(check int) "majority quorum" 3 q
  | _ -> Alcotest.fail "payload lacks quorum"

(* --- End to end -------------------------------------------------------- *)

let base_config socket =
  {
    Server.default_config with
    Server.socket_path = Some socket;
    workers = 2;
    queue_depth = 16;
    cache_capacity = 64;
  }

(* A query the reactor loop never answers itself: only analyses whose
   count DP fits the loop's cell budget are, so this one always waits
   in the queue for a lane. *)
let lane_query =
  Wire.Availability { system = Wire.Majority 3; probs = Wire.Uniform 0.01 }

(* A negative deadline makes every dequeued job stale, so the deadline
   path is exercised deterministically. *)
let deadline_config socket =
  {
    Server.default_config with
    Server.socket_path = Some socket;
    workers = 1;
    queue_depth = 4;
    cache_capacity = 0;
    deadline_seconds = -1.;
  }

(* Ask for [stats] and return the integer tally at each path. *)
let tallies c ~id paths =
  match Client.call c ~id Wire.Stats with
  | Ok stats ->
      List.map
        (fun path ->
          match
            List.fold_left (fun j k -> Option.bind j (json_field k)) (Some stats) path
          with
          | Some (Obs.Json.Int n) -> n
          | _ -> Alcotest.failf "stats payload lacks %s" (String.concat "." path))
        paths
  | Error (c, msg) -> Alcotest.failf "stats failed: %s (%s)" (Wire.code_string c) msg

let test_e2e_server () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server = Server.start (base_config socket) in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let query k = analyze ~protocol:"raft" [ (3 + (2 * k), 0.01) ] in
          (* Concurrent clients, each comparing full response lines per
             slot: responses must be byte-identical across clients and
             repeats (computed or cached). *)
          let per_slot = Array.make 4 None in
          let slot_mutex = Mutex.create () in
          let failure = Atomic.make None in
          let client_loop _k =
            let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                for r = 0 to 19 do
                  let slot = r mod 4 in
                  let line =
                    Wire.encode_request { Wire.id = slot; query = query slot }
                  in
                  match Client.call_raw c line with
                  | None ->
                      Atomic.set failure (Some "connection closed mid-run")
                  | Some reply -> (
                      Mutex.lock slot_mutex;
                      (match per_slot.(slot) with
                      | None -> per_slot.(slot) <- Some reply
                      | Some first ->
                          if first <> reply then
                            Atomic.set failure (Some "response bytes diverged"));
                      Mutex.unlock slot_mutex;
                      match Wire.parse_response reply with
                      | Ok { Wire.body = Ok _; _ } -> ()
                      | _ -> Atomic.set failure (Some ("bad reply: " ^ reply)))
                done)
          in
          let threads = List.init 4 (fun k -> Thread.create client_loop k) in
          List.iter Thread.join threads;
          (match Atomic.get failure with
          | Some msg -> Alcotest.fail msg
          | None -> ());
          (* A malformed body gets a structured parse_error on the same
             connection, which stays usable afterwards. *)
          let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (match Client.call_raw c "this is { not json" with
              | Some reply -> (
                  match Wire.parse_response reply with
                  | Ok { Wire.body = Error (Wire.Parse_error, _); _ } -> ()
                  | _ -> Alcotest.failf "expected parse_error, got %s" reply)
              | None -> Alcotest.fail "no reply to malformed request");
              (match Client.call c ~id:1 (query 0) with
              | Ok _ -> ()
              | Error (c, msg) ->
                  Alcotest.failf "connection unusable after bad request: %s (%s)"
                    (Wire.code_string c) msg);
              (* Server-side stats confirm the cache did the repeats. *)
              Alcotest.(check bool)
                "cache hits on repeated queries" true
                (List.hd (tallies c ~id:2 [ [ "cache"; "hits" ] ]) > 0));
          (* Graceful stop: idempotent, unlinks the socket. *)
          Server.stop server;
          Server.stop server;
          Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)))

let test_e2e_overload () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      (* One worker, one queue slot, no cache: an expensive enumeration
         holds the worker while pipelined requests pile up, so at least
         one must be shed with [overloaded] — and nothing may hang. *)
      let server =
        Server.start
          {
            Server.default_config with
            Server.socket_path = Some socket;
            workers = 1;
            queue_depth = 1;
            cache_capacity = 0;
            deadline_seconds = 60.;
          }
      in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let expensive =
            (* 2^20-subset enumeration: slow enough to occupy the worker. *)
            Wire.Availability
              {
                system = Wire.Grid { rows = 5; cols = 4 };
                probs = Wire.Uniform 0.02;
              }
          in
          let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (* Pipeline 6 requests without reading any replies. *)
              for i = 0 to 5 do
                Client.send c [ Wire.encode_request { Wire.id = i; query = expensive } ]
              done;
              let ok = ref 0 and overloaded = ref 0 and other = ref 0 in
              for _ = 0 to 5 do
                match Client.recv c with
                | None -> Alcotest.fail "server closed mid-overload"
                | Some reply -> (
                    match Wire.parse_response reply with
                    | Ok { Wire.body = Ok _; _ } -> incr ok
                    | Ok { Wire.body = Error (Wire.Overloaded, _); _ } ->
                        incr overloaded
                    | _ -> incr other)
              done;
              Alcotest.(check int) "all six answered" 6 (!ok + !overloaded + !other);
              Alcotest.(check int) "no unexpected errors" 0 !other;
              Alcotest.(check bool) "load was shed" true (!overloaded >= 1);
              Alcotest.(check bool) "some work completed" true (!ok >= 1))))

(* Pipelining: many frames outstanding on one connection; every id is
   answered exactly once (completions may arrive out of order). *)
let test_e2e_pipelining () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server =
        Server.start
          {
            (base_config socket) with
            Server.queue_depth = 256;
            max_pipeline = 256;
          }
      in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let n = 64 in
              let bodies =
                Array.init n (fun i ->
                    Wire.encode_request
                      {
                        Wire.id = i;
                        query =
                          analyze ~protocol:"raft"
                            [ (3 + (2 * (i mod 4)), 0.01) ];
                      })
              in
              Array.iter (fun body -> Client.send c [ body ]) bodies;
              let seen = Array.make n 0 in
              for _ = 1 to n do
                match Client.recv c with
                | None -> Alcotest.fail "connection died mid-pipeline"
                | Some reply -> (
                    match Wire.parse_response reply with
                    | Ok { Wire.rid = Some rid; body = Ok _; _ } when rid < n ->
                        seen.(rid) <- seen.(rid) + 1
                    | _ -> Alcotest.failf "bad pipelined reply: %s" reply)
              done;
              Array.iteri
                (fun i k ->
                  Alcotest.(check int)
                    (Printf.sprintf "id %d answered exactly once" i)
                    1 k)
                seen)))

let test_e2e_deadline () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server = Server.start (deadline_config socket) in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.call c ~id:0 lane_query with
              | Error (Wire.Deadline_exceeded, _) -> ()
              | Ok _ -> Alcotest.fail "expected deadline_exceeded, got ok"
              | Error (c, msg) ->
                  Alcotest.failf "expected deadline_exceeded, got %s (%s)"
                    (Wire.code_string c) msg)))

(* A lane's reply leaves in the iteration that queues it: an uncached
   request costs one reactor iteration to read and dispatch, and one to
   take the completion and write the reply. *)
let test_lane_reply_iterations () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server = Server.start { (base_config socket) with Server.workers = 1 } in
      Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
      let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let iterations () =
        List.hd (tallies c ~id:0 [ [ "reactor"; "loop_iterations" ] ])
      in
      let queries = 200 in
      let before = iterations () in
      for i = 1 to queries do
        match
          Client.call c ~id:i
            (Wire.Availability
               {
                 system = Wire.Majority 5;
                 probs = Wire.Uniform (float_of_int i *. 1e-4);
               })
        with
        | Ok _ -> ()
        | Error (c, msg) ->
            Alcotest.failf "query %d failed: %s (%s)" i (Wire.code_string c) msg
      done;
      (* The closing stats request takes one iteration of its own. *)
      let per_request =
        float_of_int (iterations () - before - 1) /. float_of_int queries
      in
      if per_request > 2. then
        Alcotest.failf "a lane-answered request cost %.2f reactor iterations (limit 2)"
          per_request)

(* A plane whose step raises answers the query it holds [internal],
   and the server then closes its listener and connections rather than
   leave clients waiting on sockets no thread serves. *)
let test_plane_failure () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let held = ref None in
      let plane =
        {
          Server.fds = (fun () -> ([], []));
          timeout = (fun () -> -1.);
          step =
            (fun ~readable:_ -> if Option.is_some !held then failwith "disk gone");
          owns = (fun q -> q = Wire.Replica_status);
          handle = (fun _ ~reply -> held := Some reply);
          stop = (fun err -> Option.iter (fun reply -> reply (Error err)) !held);
        }
      in
      let server = Server.start ~plane (base_config socket) in
      Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
      let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match Client.call c ~id:1 Wire.Replica_status with
      | Error (Wire.Internal, _) -> ()
      | Error (code, msg) ->
          Alcotest.failf "expected internal, got %s (%s)" (Wire.code_string code) msg
      | Ok _ -> Alcotest.fail "a held query was answered ok");
      Alcotest.(check bool)
        "the connection is closed" true
        (Client.recv ~timeout:5. c = None);
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> Alcotest.fail "the listener still accepts"
      | exception Unix.Unix_error _ -> ())

(* Every reply path counts once, and a lane's answer is in the cache
   before its client sees it: four analyses computed on the lanes (horizon
   trajectories, which the loop never answers itself), the same four as
   cache hits under new ids, then those exact bodies again as raw-memo
   replays. *)
let test_reply_paths_count_once () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server = Server.start (base_config socket) in
      Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
      let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let round first_id =
        List.iter
          (fun k ->
            let id = first_id + k in
            let query =
              Wire.Analyze
                {
                  scenario =
                    Probcons.Scenario.with_horizon 8760.
                      (scenario ~protocol:"raft" [ (3 + (2 * k), 0.01) ]);
                }
            in
            match Client.call_line c ~id (Wire.encode_request { Wire.id; query }) with
            | Ok body ->
                Alcotest.(check string)
                  "the reply is the router's"
                  (Wire.encode_ok ~id ~payload:(Obs.Json.to_string (handle_ok query)))
                  body
            | Error (code, msg) ->
                Alcotest.failf "analyze failed: %s (%s)" (Wire.code_string code) msg)
          [ 0; 1; 2; 3 ]
      in
      round 0;
      round 100;
      round 100;
      Alcotest.(check (list int))
        "requests total, ok, error; cache misses, hits, entries"
        [ 13; 12; 0; 4; 8; 4 ]
        (tallies c ~id:200
           [
             [ "requests"; "total" ];
             [ "requests"; "ok" ];
             [ "requests"; "error" ];
             [ "cache"; "misses" ];
             [ "cache"; "hits" ];
             [ "cache"; "entries" ];
           ]))

(* A lane's [deadline_exceeded] reply counts once as a deadline and
   once as an error. *)
let test_deadline_counts_once () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server = Server.start (deadline_config socket) in
      Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
      let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match Client.call c ~id:0 lane_query with
      | Error (Wire.Deadline_exceeded, _) -> ()
      | Ok _ -> Alcotest.fail "expected deadline_exceeded, got ok"
      | Error (c, msg) ->
          Alcotest.failf "expected deadline_exceeded, got %s (%s)"
            (Wire.code_string c) msg);
      Alcotest.(check (list int))
        "requests deadline_exceeded, error, ok" [ 1; 1; 0 ]
        (tallies c ~id:1
           [
             [ "requests"; "deadline_exceeded" ];
             [ "requests"; "error" ];
             [ "requests"; "ok" ];
           ]))

(* --- Client deadlines against a test-owned peer ----------------------- *)

(* A listener the test owns, with one accepted connection: [f] gets the
   client, connected to it, and the peer's end. *)
let with_peer f =
  let socket = temp_socket () in
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  let c = Client.connect (Client.Unix_path socket) in
  let peer, _ = Unix.accept ~cloexec:true listener in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Unix.close peer)
    (fun () -> f c peer)

let expect_timeout ~within:(lo, hi) what call =
  let t0 = Unix.gettimeofday () in
  let result = call () in
  let took = Unix.gettimeofday () -. t0 in
  match result with
  | Error (Wire.Timeout, _) ->
      if took < lo || took > hi then
        Alcotest.failf "%s: timed out after %.3f s, not within [%g, %g] s" what
          took lo hi
  | Error (code, msg) ->
      Alcotest.failf "%s: expected timeout, got %s (%s)" what
        (Wire.code_string code) msg
  | Ok _ -> Alcotest.failf "%s: a peer that does not answer answered" what

(* A peer that accepts and never reads fills the client's send buffer:
   the call must still end at its deadline, with a body under Frame's
   1 MiB bound. *)
let test_send_deadline () =
  with_watchdog ~timeout:20. (fun () ->
      with_peer @@ fun c _peer ->
      expect_timeout ~within:(0.25, 2.) "900 KB body" (fun () ->
          Client.call_line c ~timeout:0.3 ~id:1 (String.make 900_000 ' ')))

(* A zero socket timeout means none, so a budget under 1 ms must end
   the call at once, not wait without bound. *)
let test_sub_millisecond_budget () =
  with_watchdog ~timeout:20. (fun () ->
      with_peer @@ fun c _peer ->
      expect_timeout ~within:(0., 0.1) "0.5 ms budget" (fun () ->
          Client.call c ~timeout:0.0005 ~id:1 Wire.Ping))

(* The id of the next request on [peer], read through [frames]; fails
   with "client closed" at EOF. *)
let next_request_id peer frames =
  let chunk = Bytes.create 4096 in
  let rec next () =
    match Frame.next frames with
    | Ok (Some body) -> body
    | Ok None ->
        let k = Unix.read peer chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "client closed";
        Frame.feed frames chunk k;
        next ()
    | Error e -> failwith (Frame.error_message e)
  in
  match Wire.parse_request (next ()) with
  | Ok { Wire.id; _ } -> id
  | Error (_, _, msg) -> failwith msg

(* The peer reads one request and answers it [delay] seconds later. One
   decoder per request is enough: the client sends the next request
   only after the previous reply. *)
let answer peer delay =
  let id = next_request_id peer (Frame.create ()) in
  Thread.delay delay;
  let reply = Frame.encode (Wire.encode_ok ~id ~payload:"{}") in
  ignore (Unix.write_substring peer reply 0 (String.length reply))

let expect_ok what = function
  | Ok _ -> ()
  | Error (code, msg) ->
      Alcotest.failf "%s failed: %s (%s)" what (Wire.code_string code) msg

(* A deadline ends with its call: after [call ~timeout:0.2] succeeds,
   [call_raw], which has none, waits for a reply sent 0.5 s later. *)
let test_no_leftover_timeout () =
  with_watchdog ~timeout:20. (fun () ->
      with_peer @@ fun c peer ->
      let server = Thread.create (fun () -> answer peer 0.; answer peer 0.5) () in
      expect_ok "the first call" (Client.call c ~timeout:0.2 ~id:1 Wire.Ping);
      let t0 = Unix.gettimeofday () in
      let reply = Client.call_raw c (Wire.encode_request { Wire.id = 2; query = Wire.Ping }) in
      let took = Unix.gettimeofday () -. t0 in
      Thread.join server;
      Alcotest.(check (option string))
        "the late reply arrives" (Some (Wire.encode_ok ~id:2 ~payload:"{}")) reply;
      if took < 0.4 then Alcotest.failf "the reply came after %.3f s, not 0.5 s" took)

(* [call_line] checks every reply: one that is not a response to this
   call — broken deep in its payload, holding a number RFC 8259
   forbids, answering another id, or carrying neither ok nor error — is
   refused like any other corruption. *)
let test_not_a_response_refused () =
  with_watchdog ~timeout:20. (fun () ->
      List.iter
        (fun reply ->
          with_peer @@ fun c peer ->
          let frame = Frame.encode reply in
          ignore (Unix.write_substring peer frame 0 (String.length frame));
          match
            Client.call_line c ~timeout:5. ~max_attempts:1 ~id:1
              (Wire.encode_request { Wire.id = 1; query = Wire.Ping })
          with
          | Error (Wire.Connection_lost, _) -> ()
          | Error (code, msg) ->
              Alcotest.failf "%s: %s (%s), not connection_lost" reply
                (Wire.code_string code) msg
          | Ok _ -> Alcotest.failf "%s accepted" reply)
        [
          {|{"v": 3, "id": 1, "ok": {"p": [1, 2}}|};
          {|{"v": 3, "id": 1, "ok": {"p": 01}}|};
          {|{"v": 3, "id": 2, "ok": {}}|};
          {|{"v": 3, "id": 1}|};
        ])

(* The client waits under half the time left: a reply sent 0.3 s into
   a 0.5 s budget arrives after the socket timeout first expires, and
   the call sets it again and gets the reply. *)
let test_late_reply_arrives () =
  with_watchdog ~timeout:20. (fun () ->
      with_peer @@ fun c peer ->
      let server = Thread.create (fun () -> answer peer 0.3) () in
      let result = Client.call c ~timeout:0.5 ~id:1 Wire.Ping in
      Thread.join server;
      expect_ok "a call answered after 0.3 s" result)

(* A socket timeout left by a longer call does not outlast a shorter
   deadline: after a 5 s call is answered at once, a 0.2 s call to the
   now silent peer times out in time. *)
let test_shorter_deadline_holds () =
  with_watchdog ~timeout:20. (fun () ->
      with_peer @@ fun c peer ->
      let server = Thread.create (fun () -> answer peer 0.) () in
      expect_ok "the 5 s call" (Client.call c ~timeout:5. ~id:1 Wire.Ping);
      Thread.join server;
      expect_timeout ~within:(0.15, 1.) "0.2 s budget after a 5 s one" (fun () ->
          Client.call c ~timeout:0.2 ~id:2 Wire.Ping))

(* --- The load generator ---------------------------------------------- *)

(* Pipelined load against a real server: every reply is ok and
   byte-identical to its slot's first. *)
let test_loadgen_pipelined () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server =
        Server.start { Server.default_config with Server.socket_path = Some socket }
      in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let r =
            Loadgen.run ~clients:2 ~requests:200 ~pipeline:8
              ~target:(Client.Unix_path socket) ()
          in
          Alcotest.(check int) "ok" 400 r.Loadgen.ok;
          Alcotest.(check int) "errors" 0 r.errors;
          Alcotest.(check int) "mismatches" 0 r.mismatches))

(* A peer that answers every request [overloaded], with its id, on each
   connection in turn until [stop] is set. *)
let refusing_peer socket stop =
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 4;
  let serve conn =
    let frames = Frame.create () in
    try
      while true do
        let id = next_request_id conn frames in
        let reply = Frame.encode (Wire.encode_error ~id:(Some id) Wire.Overloaded "busy") in
        ignore (Unix.write_substring conn reply 0 (String.length reply))
      done
    with Failure _ | Unix.Unix_error _ -> ()
  in
  let rec loop () =
    let conn, _ = Unix.accept ~cloexec:true listener in
    if not (Atomic.get stop) then begin
      Fun.protect ~finally:(fun () -> Unix.close conn) (fun () -> serve conn);
      loop ()
    end
    else Unix.close conn
  in
  Thread.create
    (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Unix.close listener;
          try Unix.unlink socket with Unix.Unix_error _ -> ())
        loop)
    ()

(* An error reply counts as an error under its code, never as ok, on
   the pipelined path and on the serial one. *)
let test_loadgen_counts_errors () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let stop = Atomic.make false in
      let peer = refusing_peer socket stop in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          (* Wake the peer's accept so it sees [stop]. *)
          (try Client.close (Client.connect (Client.Unix_path socket))
           with Unix.Unix_error _ -> ());
          Thread.join peer)
        (fun () ->
          List.iter
            (fun pipeline ->
              let r =
                Loadgen.run ~clients:1 ~requests:50 ~pipeline
                  ~target:(Client.Unix_path socket) ()
              in
              let what = Printf.sprintf "pipeline %d" pipeline in
              Alcotest.(check int) (what ^ ": ok") 0 r.Loadgen.ok;
              Alcotest.(check int) (what ^ ": errors") 50 r.errors;
              Alcotest.(check (list (pair string int)))
                (what ^ ": errors by code") [ ("overloaded", 50) ] r.errors_by_code)
            [ 8; 1 ]))

(* --- Small analyses on the loop ------------------------------------------ *)

(* The loop answers a cache miss itself when its count DP walks at most
   512 cells in that iteration: a one-kind fleet of up to 30 nodes
   (495 cells), or a mixed one of up to 12 (454). One node more is 527
   and 559 cells. *)
let at_budget =
  [
    analyze ~protocol:"raft" [ (30, 0.01) ];
    analyze ~protocol:"upright" [ (12, 0.02) ];
  ]

let over_budget =
  [
    analyze ~protocol:"raft" [ (31, 0.01) ];
    analyze ~protocol:"upright" [ (13, 0.02) ];
  ]

let request_tallies =
  [
    [ "reactor"; "loop_iterations" ];
    [ "requests"; "on_loop" ];
    [ "cache"; "misses" ];
    [ "cache"; "hits" ];
  ]

(* Send [query] under [id] and check the reply is the router's bytes. *)
let expect_router_reply c ~id query =
  match Client.call_line c ~id (Wire.encode_request { Wire.id; query }) with
  | Ok body ->
      Alcotest.(check string)
        "the reply is the router's"
        (Wire.encode_ok ~id ~payload:(Obs.Json.to_string (handle_ok query)))
        body
  | Error (code, msg) ->
      Alcotest.failf "analyze failed: %s (%s)" (Wire.code_string code) msg

let with_server config f =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server = Server.start (config socket) in
      Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
      let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () -> f c)

(* A miss within the budget is read, computed and written in one loop
   iteration, then counts as a miss answered on the loop; asked again,
   it is a cache hit. Each [stats] request takes an iteration of its
   own. *)
let test_small_analysis_on_loop () =
  with_server base_config @@ fun c ->
  List.iteri
    (fun k query ->
      let before = tallies c ~id:(10 * k) request_tallies in
      expect_router_reply c ~id:((10 * k) + 1) query;
      let missed = tallies c ~id:((10 * k) + 2) request_tallies in
      expect_router_reply c ~id:((10 * k) + 3) query;
      let hit = tallies c ~id:((10 * k) + 4) request_tallies in
      let delta a b = List.map2 ( - ) b a in
      Alcotest.(check (list int))
        "loop iterations, on_loop, cache misses, hits after the miss"
        [ 2; 1; 1; 0 ] (delta before missed);
      Alcotest.(check (list int))
        "loop iterations, on_loop, cache misses, hits after the hit"
        [ 2; 0; 0; 1 ] (delta missed hit))
    at_budget

(* One node over the budget, a miss goes to a lane, with the same bytes. *)
let test_over_budget_to_lane () =
  with_server base_config @@ fun c ->
  List.iteri
    (fun k query ->
      let before = tallies c ~id:(10 * k) request_tallies in
      expect_router_reply c ~id:((10 * k) + 1) query;
      match List.map2 ( - ) (tallies c ~id:((10 * k) + 2) request_tallies) before with
      | [ _; on_loop; misses; _ ] ->
          Alcotest.(check (list int)) "on_loop, cache misses" [ 0; 1 ] [ on_loop; misses ]
      | _ -> assert false)
    over_budget

(* A pipelined burst of small analyses: the loop answers what one
   budget covers per iteration and queues the rest for the lanes, and
   every request is answered exactly once. *)
let test_pipelined_small_analyses () =
  with_server
    (fun socket ->
      { (base_config socket) with Server.queue_depth = 256; max_pipeline = 256 })
  @@ fun c ->
  let n = 64 in
  let queries =
    Array.init n (fun i ->
        analyze ~protocol:(if i mod 2 = 0 then "raft" else "pbft")
          [ (15, 0.001 +. (float_of_int i *. 1e-4)) ])
  in
  Client.send c
    (Array.to_list
       (Array.mapi (fun id query -> Wire.encode_request { Wire.id; query }) queries));
  let seen = Array.make n 0 in
  for _ = 1 to n do
    match Client.recv c with
    | None -> Alcotest.fail "connection died mid-pipeline"
    | Some reply -> (
        match Wire.parse_response reply with
        | Ok { Wire.rid = Some rid; body = Ok _; _ } when rid >= 0 && rid < n ->
            Alcotest.(check string)
              (Printf.sprintf "id %d is the router's reply" rid)
              (Wire.encode_ok ~id:rid
                 ~payload:(Obs.Json.to_string (handle_ok queries.(rid))))
              reply;
            seen.(rid) <- seen.(rid) + 1
        | _ -> Alcotest.failf "bad pipelined reply: %s" reply)
  done;
  Array.iteri
    (fun i k -> Alcotest.(check int) (Printf.sprintf "id %d answered once" i) 1 k)
    seen;
  match tallies c ~id:n [ [ "requests"; "on_loop" ]; [ "cache"; "misses" ] ] with
  | [ on_loop; misses ] ->
      Alcotest.(check int) "every request a miss" n misses;
      if on_loop < 1 || on_loop >= n then
        Alcotest.failf "%d of %d answered on the loop: expected some, not all"
          on_loop n
  | _ -> assert false

(* Parsing checks a scenario and runs nothing: a weighted entry's sizing
   search waits for the lane that analyzes the scenario, so the reactor
   that parses it never pays for it. A target that no sizing meets
   still parses; its analysis is the error. *)
let test_parse_runs_no_analysis () =
  let runs () =
    match
      Obs.Metrics.find (Obs.Metrics.snapshot ()) ~family:"analysis" ~name:"runs"
    with
    | Some (Obs.Metrics.Counter v) -> v
    | _ -> Alcotest.fail "no analysis.runs counter"
  in
  let parses what query =
    match Wire.parse_request (Wire.encode_request { Wire.id = 1; query }) with
    | Ok _ -> ()
    | Error (_, code, msg) ->
        Alcotest.failf "%s: %s: %s" what (Wire.code_string code) msg
  in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  List.iter
    (fun (what, query) ->
      let before = runs () in
      parses what query;
      Alcotest.(check int) (what ^ ": analysis.runs unmoved") before (runs ()))
    [
      ("200-node raft-weighted", analyze ~protocol:"raft-weighted" [ (200, 0.01) ]);
      ( "22-node committee-weighted",
        analyze ~protocol:"committee-weighted" [ (22, 0.01) ] );
    ];
  parses "an unmet target stored"
    (Wire.Scenario_put
       {
         name = "unmet";
         scenario =
           scenario ~quorums:[ ("target_nines", 9) ] ~protocol:"raft-weighted"
             [ (5, 0.01) ];
         nonce = 0;
       })

let suite =
  [
    Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire error codes" `Quick test_wire_error_codes;
    Alcotest.test_case "wire parse errors" `Quick test_wire_parse_errors;
    Alcotest.test_case "wire canonical key" `Quick test_wire_canonical_key;
    Alcotest.test_case "wire responses" `Quick test_wire_responses;
    Alcotest.test_case "cache eviction order" `Quick test_cache_eviction_order;
    Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
    Alcotest.test_case "cache hit stats" `Quick test_cache_hit_stats;
    Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
    Alcotest.test_case "cache re-add" `Quick test_cache_readd;
    Alcotest.test_case "router matches direct run" `Quick test_router_matches_direct;
    Alcotest.test_case "router deterministic" `Quick test_router_deterministic;
    Alcotest.test_case "router rejects stats" `Quick test_router_stats_rejected;
    Alcotest.test_case "router all models" `Quick test_router_all_models;
    Alcotest.test_case "router byz override" `Quick test_router_byz_override;
    Alcotest.test_case "router markov default quorum" `Quick
      test_router_markov_default_quorum;
    Alcotest.test_case "e2e server" `Quick test_e2e_server;
    Alcotest.test_case "e2e overload" `Quick test_e2e_overload;
    Alcotest.test_case "e2e pipelining" `Quick test_e2e_pipelining;
    Alcotest.test_case "e2e deadline" `Quick test_e2e_deadline;
    Alcotest.test_case "a lane reply leaves in its own iteration" `Quick
      test_lane_reply_iterations;
    Alcotest.test_case "a failed plane closes the server" `Quick
      test_plane_failure;
    Alcotest.test_case "every reply path counts once" `Quick
      test_reply_paths_count_once;
    Alcotest.test_case "a lane's deadline reply counts once" `Quick
      test_deadline_counts_once;
    Alcotest.test_case "a send that cannot finish times out" `Quick
      test_send_deadline;
    Alcotest.test_case "a budget under 1 ms times out at once" `Quick
      test_sub_millisecond_budget;
    Alcotest.test_case "no socket timeout outlives its call" `Quick
      test_no_leftover_timeout;
    Alcotest.test_case "a reply that is not a response is refused" `Quick
      test_not_a_response_refused;
    Alcotest.test_case "a reply after half the budget still arrives" `Quick
      test_late_reply_arrives;
    Alcotest.test_case "a shorter deadline after a longer one holds" `Quick
      test_shorter_deadline_holds;
    Alcotest.test_case "the reply check allocates nothing per payload value" `Quick
      test_response_verdict_allocation;
    Alcotest.test_case "pipelined loadgen: every reply ok" `Quick
      test_loadgen_pipelined;
    Alcotest.test_case "loadgen counts error replies by code" `Quick
      test_loadgen_counts_errors;
    Alcotest.test_case "a small analysis is answered on the loop" `Quick
      test_small_analysis_on_loop;
    Alcotest.test_case "an analysis over the cell budget goes to a lane" `Quick
      test_over_budget_to_lane;
    Alcotest.test_case "pipelined small analyses: each answered once" `Quick
      test_pipelined_small_analyses;
    Alcotest.test_case "parsing runs no analysis" `Quick
      test_parse_runs_no_analysis;
  ]
