(* The chaos-hardening layer: frame reassembly cost, the fault-injecting
   proxy, the resilient client, and the server's self-protection
   (ping, idle timeout, connection cap). The headline property: no
   fault schedule may keep [Client.call_line] busy past its deadline
   or hand it corrupted bytes as a success. *)

open Service

let with_watchdog ?(timeout = 60.) f =
  let outcome = ref None in
  let th =
    Thread.create (fun () -> outcome := Some (try Ok (f ()) with e -> Error e)) ()
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match !outcome with
    | Some (Ok ()) -> Thread.join th
    | Some (Error e) ->
        Thread.join th;
        raise e
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
      (Printf.sprintf "probcons-chaos-%d-%d.sock" (Unix.getpid ()) !counter)

let json_field name = function
  | Obs.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* --- Frame reassembly ------------------------------------------------- *)

let test_frame_linear_cost () =
  (* Reassembly must stay linear in bytes received however the stream
     is split: a [pending ^ chunk] decoder would take minutes here — a
     4 MB frame (the raft plane's bound) fed in 512-byte chunks. *)
  let d = Frame.create ~max_payload_bytes:Replica.Transport.max_envelope_bytes () in
  let frame =
    Bytes.of_string
      (Frame.encode ~max_payload_bytes:Replica.Transport.max_envelope_bytes
         (String.make Replica.Transport.max_envelope_bytes 'x'))
  in
  let t0 = Unix.gettimeofday () in
  let off = ref 0 in
  while !off < Bytes.length frame do
    let k = min 512 (Bytes.length frame - !off) in
    Frame.feed d (Bytes.sub frame !off k) k;
    (if !off + k < Bytes.length frame then
       match Frame.next d with
       | Ok None -> ()
       | _ -> Alcotest.fail "frame surfaced before its last byte");
    off := !off + k
  done;
  (match Frame.next d with
  | Ok (Some body) ->
      Alcotest.(check int) "payload length" Replica.Transport.max_envelope_bytes
        (String.length body)
  | _ -> Alcotest.fail "frame did not complete");
  Alcotest.(check bool) "decoded once" true (Frame.next d = Ok None);
  Alcotest.(check bool) "linear-time assembly" true
    (Unix.gettimeofday () -. t0 < 5.)

(* --- Fault plan JSON ---------------------------------------------------- *)

let test_plan_roundtrip () =
  let plan = Chaos.default_plan ~seed:1234 () in
  (match Chaos.plan_of_json (Chaos.plan_to_json plan) with
  | Ok p -> Alcotest.(check bool) "round-trips" true (p = plan)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  let reject doc msg =
    match Chaos.plan_of_json doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail msg
  in
  reject (Obs.Json.Obj []) "empty plan must not parse";
  (match Chaos.plan_to_json plan with
  | Obs.Json.Obj fields ->
      reject
        (Obs.Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "reset_p" then (k, Obs.Json.Float 1.5) else (k, v))
              fields))
        "out-of-range probability must not parse"
  | _ -> Alcotest.fail "plan_to_json must be an object")

(* --- End-to-end through the proxy --------------------------------------- *)

let quick_config socket =
  {
    Server.default_config with
    Server.socket_path = Some socket;
    workers = 1;
    queue_depth = 16;
    cache_capacity = 64;
  }

let with_server ?(config = quick_config) f =
  let socket = temp_socket () in
  let server = Server.start (config socket) in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server socket)

let with_proxy ~plan ~upstream f =
  let listen = temp_socket () in
  let proxy =
    Chaos.start ~plan
      ~listen:(Client.Unix_path listen)
      ~upstream:(Client.Unix_path upstream)
  in
  Fun.protect ~finally:(fun () -> Chaos.stop proxy) (fun () -> f proxy listen)

let query k =
  match
    Probcons.Scenario.make ~protocol:"raft" ~mix:[ (3 + (2 * k), 0.01) ] ()
  with
  | Ok scenario -> Wire.Analyze { scenario }
  | Error msg -> Alcotest.failf "bad test scenario: %s" msg

let baseline_lines socket n =
  let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Array.init n (fun k ->
          match
            Client.call_line c ~id:k
              (Wire.encode_request { Wire.id = k; query = query k })
          with
          | Ok line -> line
          | Error (code, msg) ->
              Alcotest.failf "baseline call %d failed: %s (%s)" k
                (Wire.code_string code) msg))

let test_passthrough_transparent () =
  with_watchdog (fun () ->
      with_server (fun _server socket ->
          let expected = baseline_lines socket 3 in
          with_proxy ~plan:(Chaos.passthrough_plan ()) ~upstream:socket
            (fun proxy listen ->
              let c =
                Client.connect ~retry_for:5. ~timeout:10.
                  (Client.Unix_path listen)
              in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  for round = 0 to 5 do
                    let k = round mod 3 in
                    match
                      Client.call_line c ~id:k
                        (Wire.encode_request { Wire.id = k; query = query k })
                    with
                    | Ok line ->
                        Alcotest.(check string) "byte-identical via proxy"
                          expected.(k) line
                    | Error (code, msg) ->
                        Alcotest.failf "call failed through passthrough: %s (%s)"
                          (Wire.code_string code) msg
                  done);
              let counts = Chaos.counts proxy in
              let get name = List.assoc name counts in
              Alcotest.(check bool) "connections seen" true (get "connections" >= 1);
              Alcotest.(check bool) "chunks forwarded" true
                (get "chunks_forwarded" >= 1);
              List.iter
                (fun name ->
                  Alcotest.(check int) ("no " ^ name) 0 (get name))
                [
                  "blackholed"; "resets"; "truncations"; "garbage_injections";
                  "delays"; "partial_writes";
                ])))

let test_blackhole_times_out () =
  with_watchdog (fun () ->
      with_server (fun _server socket ->
          let plan = { (Chaos.passthrough_plan ()) with Chaos.blackhole_p = 1.0 } in
          with_proxy ~plan ~upstream:socket (fun proxy listen ->
              let c =
                Client.connect ~retry_for:5. ~timeout:0.4
                  (Client.Unix_path listen)
              in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  let t0 = Unix.gettimeofday () in
                  (match Client.call c ~id:0 (query 0) with
                  | Error (Wire.Timeout, _) -> ()
                  | Ok _ -> Alcotest.fail "a black-holed call cannot succeed"
                  | Error (code, msg) ->
                      Alcotest.failf "want timeout, got %s (%s)"
                        (Wire.code_string code) msg);
                  let elapsed = Unix.gettimeofday () -. t0 in
                  Alcotest.(check bool) "returned near the deadline" true
                    (elapsed >= 0.35 && elapsed < 2.));
              Alcotest.(check bool) "counted as blackholed" true
                (List.assoc "blackholed" (Chaos.counts proxy) >= 1))))

(* The soak property, sized for CI: under an arbitrary seeded fault
   plan, every call returns within deadline + slack, and every [Ok] is
   byte-correct. One server/proxy pair per generated seed. *)
let prop_no_call_outlives_deadline =
  QCheck.Test.make ~count:6 ~name:"chaos: calls end typed and inside deadline"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      (* [fail_reportf] raises; the watchdog re-raises it on the main
         thread, and QCheck reports it with the seed for replay. *)
      with_watchdog ~timeout:90. (fun () ->
          with_server (fun _server socket ->
              let expected = baseline_lines socket 2 in
              let plan =
                {
                  (Chaos.default_plan ~seed ()) with
                  Chaos.delay_p = 0.3;
                  max_delay = 0.05;
                  truncate_p = 0.1;
                  garbage_p = 0.1;
                  reset_p = 0.1;
                  blackhole_p = 0.2;
                }
              in
              with_proxy ~plan ~upstream:socket (fun _proxy listen ->
                  let deadline = 0.6 in
                  let c =
                    Client.connect ~retry_for:5. ~timeout:deadline
                      ~backoff:{ Client.default_backoff with seed }
                      (Client.Unix_path listen)
                  in
                  Fun.protect
                    ~finally:(fun () -> Client.close c)
                    (fun () ->
                      for r = 0 to 9 do
                        let k = r mod 2 in
                        let t0 = Unix.gettimeofday () in
                        let outcome =
                          Client.call_line c ~id:k
                            (Wire.encode_request { Wire.id = k; query = query k })
                        in
                        let elapsed = Unix.gettimeofday () -. t0 in
                        if elapsed > deadline +. 0.5 then
                          QCheck.Test.fail_reportf
                            "call %d took %.3fs (deadline %.1fs, seed %d)" r
                            elapsed deadline seed;
                        match outcome with
                        | Ok line ->
                            if not (String.equal line expected.(k)) then
                              QCheck.Test.fail_reportf
                                "seed %d: corrupted bytes surfaced as Ok" seed
                        | Error ((Wire.Timeout | Wire.Connection_lost), _) -> ()
                        | Error (code, msg) ->
                            QCheck.Test.fail_reportf
                              "seed %d: untyped failure %s (%s)" seed
                              (Wire.code_string code) msg
                      done))));
      true)

(* Regression: half a request frame followed by an abrupt reset must
   not wedge the server or poison the reply cache for the request the
   fragment was a prefix of. *)
let test_half_written_request_reset () =
  with_watchdog (fun () ->
      with_server (fun server socket ->
          let expected = baseline_lines socket 1 in
          let full = Wire.encode_request { Wire.id = 0; query = query 0 } in
          let frame = Frame.encode full in
          let prefix = String.sub frame 0 (String.length frame / 2) in
          (* Raw socket: write half a frame, then reset hard. *)
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let n =
            Unix.write_substring fd prefix 0 (String.length prefix)
          in
          Alcotest.(check int) "prefix written" (String.length prefix) n;
          Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
          Unix.close fd;
          (* The server keeps serving, and the cached reply for the
             sliced request is still byte-correct. *)
          let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.call_line c ~id:0 full with
              | Ok line ->
                  Alcotest.(check string) "cache not poisoned" expected.(0) line
              | Error (code, msg) ->
                  Alcotest.failf "server wedged after reset: %s (%s)"
                    (Wire.code_string code) msg);
          (* The torn connection's reader is released. *)
          Alcotest.(check int) "no reader leaked" 0 (Soak.drain server)))

(* --- Server self-protection -------------------------------------------- *)

let test_ping () =
  with_watchdog (fun () ->
      with_server (fun _server socket ->
          let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.call c ~id:7 Wire.Ping with
              | Error (code, msg) ->
                  Alcotest.failf "ping failed: %s (%s)" (Wire.code_string code)
                    msg
              | Ok payload ->
                  (match json_field "wire" payload with
                  | Some (Obs.Json.String w) ->
                      Alcotest.(check string) "wire name" Wire.protocol_name w
                  | _ -> Alcotest.fail "ping payload lacks wire");
                  (match
                     Option.bind (json_field "uptime_seconds" payload)
                       Obs.Json.to_float
                   with
                  | Some up -> Alcotest.(check bool) "uptime >= 0" true (up >= 0.)
                  | None -> Alcotest.fail "ping payload lacks uptime_seconds");
                  match
                    Option.bind (json_field "queue" payload)
                      (json_field "capacity")
                  with
                  | Some (Obs.Json.Int cap) ->
                      Alcotest.(check int) "queue capacity" 16 cap
                  | _ -> Alcotest.fail "ping payload lacks queue.capacity")))

let test_idle_timeout () =
  with_watchdog (fun () ->
      let config socket =
        { (quick_config socket) with Server.idle_timeout_seconds = 0.2 }
      in
      with_server ~config (fun server socket ->
          let c = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (* An active connection is not idle-closed mid-exchange. *)
              (match Client.call c ~id:0 (query 0) with
              | Ok _ -> ()
              | Error (code, msg) ->
                  Alcotest.failf "healthy call failed: %s (%s)"
                    (Wire.code_string code) msg);
              (* Now go silent: the server must close us, not wait
                 forever on a dead peer. *)
              (match Client.recv_line c with
              | None -> ()
              | Some line -> Alcotest.failf "unexpected line on idle: %s" line);
              Alcotest.(check int) "idle connection released" 0
                (Soak.drain server))))

let test_max_connections () =
  let expect_overloaded = function
    | None -> Alcotest.fail "rejected connection got no error frame"
    | Some body -> (
        match Wire.parse_response body with
        | Ok { Wire.body = Error (Wire.Overloaded, _); _ } -> ()
        | _ -> Alcotest.failf "want overloaded, got %s" body)
  in
  with_watchdog (fun () ->
      let config socket =
        { (quick_config socket) with Server.max_connections = 1 }
      in
      with_server ~config (fun server socket ->
          let c1 = Client.connect ~retry_for:5. (Client.Unix_path socket) in
          Fun.protect
            ~finally:(fun () -> Client.close c1)
            (fun () ->
              (* Ensure c1 is registered before probing the cap. *)
              (match Client.call c1 ~id:0 Wire.Ping with
              | Ok _ -> ()
              | Error (code, msg) ->
                  Alcotest.failf "ping failed: %s (%s)" (Wire.code_string code)
                    msg);
              Alcotest.(check int) "one live connection" 1
                (Server.connection_count server);
              (* The second accept is answered [overloaded] in one frame
                 and closed — a structured rejection, not a hang or a
                 silent drop, readable by any client. *)
              let c2 = Client.connect ~retry_for:5. (Client.Unix_path socket) in
              Fun.protect
                ~finally:(fun () -> Client.close c2)
                (fun () ->
                  expect_overloaded (Client.recv_line c2));
              (* A client that sends first, as `probcons call` does,
                 still reads the goodbye when the server has closed
                 before the send (given time to, here). *)
              let c3 = Client.connect ~retry_for:5. (Client.Unix_path socket) in
              Fun.protect
                ~finally:(fun () -> Client.close c3)
                (fun () ->
                  Thread.delay 0.1;
                  expect_overloaded
                    (Client.call_raw c3
                       (Wire.encode_request { Wire.id = 2; query = Wire.Ping })));
              (* The first connection is untouched by the rejection. *)
              match Client.call c1 ~id:1 Wire.Ping with
              | Ok _ -> ()
              | Error (code, msg) ->
                  Alcotest.failf "survivor broken: %s (%s)"
                    (Wire.code_string code) msg)))

(* --- The soak, in process ---------------------------------------------- *)

let test_soak_in_process () =
  with_watchdog (fun () ->
      let r =
        Soak.run ~plan:(Chaos.default_plan ~seed:42 ()) ~clients:2 ~requests:30
          ~distinct:8 ~deadline:2.
      in
      Alcotest.(check (list string)) "no contract violation" [] r.Soak.failures;
      Alcotest.(check int) "connections drained" 0 r.Soak.connections_after;
      Alcotest.(check int) "every call answered or typed" 60
        (r.Soak.loadgen.Loadgen.ok + r.Soak.loadgen.Loadgen.errors);
      let counts = Chaos.counts r.Soak.proxy in
      Alcotest.(check bool) "fault counts reported" true
        (List.mem_assoc "resets" counts
        && List.assoc "connections" counts > 0);
      match Obs.Json.member "drained" (Soak.artifact r) with
      | Some (Obs.Json.Bool true) -> ()
      | _ -> Alcotest.fail "artifact does not record the drain")

let suite =
  [
    Alcotest.test_case "frame linear cost" `Quick test_frame_linear_cost;
    Alcotest.test_case "fault plan json round-trip" `Quick test_plan_roundtrip;
    Alcotest.test_case "passthrough proxy is transparent" `Quick
      test_passthrough_transparent;
    Alcotest.test_case "blackhole yields typed timeout" `Quick
      test_blackhole_times_out;
    Alcotest.test_case "half-written request + reset" `Quick
      test_half_written_request_reset;
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "idle timeout releases readers" `Quick test_idle_timeout;
    Alcotest.test_case "max connections rejects with overloaded" `Quick
      test_max_connections;
    QCheck_alcotest.to_alcotest prop_no_call_outlives_deadline;
    Alcotest.test_case "soak in process passes and drains" `Quick
      test_soak_in_process;
  ]
