(* The fleet controller: telemetry stream determinism, the closed
   loop's recommendations, canonical-payload byte identity across the
   CLI renderer and the served reply, the DST system, and the
   incremental engine's speed over a full recompute. *)

open Fleetctl

let with_watchdog ?(timeout = 60.) f =
  let outcome = ref None in
  let th =
    Thread.create (fun () -> outcome := Some (try Ok (f ()) with e -> Error e)) ()
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
      (Printf.sprintf "probcons-fleet-%d-%d.sock" (Unix.getpid ()) !counter)

(* The config the e2e and determinism tests share: a tight 7-of-9
   quorum under a 5-nines target fires both recommendation levers. *)
let tight_case () =
  let cfg = Controller.default_config ~seed:42 ~ticks:8 ~nodes:9 () in
  { cfg with Controller.quorum = 7; target_live = Prob.Nines.to_prob 5. }

(* --- Stream --------------------------------------------------------- *)

let test_stream_determinism () =
  let cfg = Stream.default_config ~seed:11 ~nodes:7 () in
  let run () =
    let s = Stream.create cfg in
    List.concat_map
      (fun _ ->
        List.map
          (fun { Stream.node; observation } ->
            ( node,
              observation.Faultmodel.Telemetry.failures,
              observation.Faultmodel.Telemetry.device_hours ))
          (Stream.tick s))
      [ (); (); (); (); () ]
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2
    (fun (n1, f1, h1) (n2, f2, h2) ->
      Alcotest.(check int) "node" n1 n2;
      Alcotest.(check int) "failures" f1 f2;
      Alcotest.(check (float 0.)) "device_hours" h1 h2)
    a b

let test_stream_drift_and_replace () =
  let cfg =
    { (Stream.default_config ~seed:3 ~nodes:4 ()) with Stream.drift_every = 1 }
  in
  let s = Stream.create cfg in
  let before = Array.init 4 (Stream.ground_truth_afr s) in
  ignore (Stream.tick s);
  let after = Array.init 4 (Stream.ground_truth_afr s) in
  let drifted =
    Array.exists Fun.id (Array.map2 (fun a b -> a <> b) before after)
  in
  Alcotest.(check bool) "one node drifted" true drifted;
  Stream.replace s 0 ~afr:0.02;
  Alcotest.(check (float 0.)) "replace resets truth" 0.02
    (Stream.ground_truth_afr s 0)

let test_stream_dynamic_determinism () =
  (* Dynamic mode replaces step drift with per-node Markov degradation;
     the whole schedule must still be a pure function of the seed. *)
  let cfg = Stream.default_config ~dynamic:true ~seed:11 ~nodes:7 () in
  let run () =
    let s = Stream.create cfg in
    let events =
      List.concat_map
        (fun _ ->
          List.map
            (fun { Stream.node; observation } ->
              ( node,
                observation.Faultmodel.Telemetry.failures,
                observation.Faultmodel.Telemetry.device_hours ))
            (Stream.tick s))
        [ (); (); (); (); () ]
    in
    (events, List.init 7 (Stream.ground_truth_degraded s))
  in
  let a, da = run () and b, db = run () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2
    (fun (n1, f1, h1) (n2, f2, h2) ->
      Alcotest.(check int) "node" n1 n2;
      Alcotest.(check int) "failures" f1 f2;
      Alcotest.(check (float 0.)) "device_hours" h1 h2)
    a b;
  Alcotest.(check (list bool)) "same degradation states" da db

let test_stream_ground_truth_process () =
  let static = Stream.create (Stream.default_config ~seed:5 ~nodes:3 ()) in
  (match Stream.ground_truth_process static 0 with
  | Faultmodel.Failure_process.Curve _ -> ()
  | p ->
      Alcotest.failf "static stream truth must be a curve, got %s"
        (Obs.Json.to_string (Faultmodel.Failure_process.to_json p)));
  let dynamic =
    Stream.create (Stream.default_config ~dynamic:true ~seed:5 ~nodes:3 ())
  in
  match Stream.ground_truth_process dynamic 0 with
  | Faultmodel.Failure_process.Markov { fail_rate; recover_rate } ->
      Alcotest.(check bool) "positive rates" true
        (fail_rate > 0. && recover_rate > 0.)
  | p ->
      Alcotest.failf "dynamic stream truth must be markov, got %s"
        (Obs.Json.to_string (Faultmodel.Failure_process.to_json p))

(* --- Controller ----------------------------------------------------- *)

let payload_bytes o = Obs.Json.to_string (Controller.payload o)

let test_controller_deterministic () =
  let cfg = tight_case () in
  let a = payload_bytes (Controller.run cfg)
  and b = payload_bytes (Controller.run cfg) in
  Alcotest.(check string) "payloads byte-identical" a b

let test_controller_recommends () =
  let o = Controller.run (tight_case ()) in
  let resizes, swaps =
    List.partition
      (fun r ->
        match r.Controller.action with
        | Controller.Resize _ -> true
        | Controller.Swap _ -> false)
      o.Controller.recommendations
  in
  Alcotest.(check bool) "at least one resize" true (resizes <> []);
  Alcotest.(check bool) "at least one swap" true (swaps <> []);
  (* Recommendations fire only below target, and a swap must predict
     an improvement over the live probability that triggered it. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "fired below target" true
        (r.Controller.p_live < (tight_case ()).Controller.target_live);
      match r.Controller.action with
      | Controller.Swap { predicted_live; _ } ->
          Alcotest.(check bool) "swap predicts improvement" true
            (predicted_live > r.Controller.p_live)
      | Controller.Resize _ -> ())
    o.Controller.recommendations

let test_controller_resize_quorum () =
  (* Four nodes that must all be up miss a 3-nines target at tick 4;
     the resize picks (q_per 2, q_vc 3), which is live only while 3
     nodes are up, so the run must count 3 from then on, and its final
     liveness is the resize's own prediction. *)
  let cfg = Controller.default_config ~seed:1 ~ticks:4 ~nodes:4 () in
  let o =
    Controller.run
      { cfg with Controller.quorum = 4; target_live = Prob.Nines.to_prob 3. }
  in
  match o.Controller.recommendations with
  | [ { Controller.action = Controller.Resize { q_per; q_vc; predicted_live }; _ } ] ->
      Alcotest.(check (pair int int)) "resized to (2, 3)" (2, 3) (q_per, q_vc);
      Alcotest.(check (option int)) "payload quorum" (Some 3)
        (match Obs.Json.member "quorum" (Controller.payload o) with
        | Some (Obs.Json.Int q) -> Some q
        | _ -> None);
      Alcotest.(check (float 1e-12)) "final p_live is the resize's prediction"
        predicted_live o.Controller.final_p_live
  | _ -> Alcotest.fail "expected exactly one resize"

let test_controller_validates () =
  let cfg = tight_case () in
  Alcotest.check_raises "quorum out of range"
    (Invalid_argument "Controller.run: quorum must be in [1, nodes]")
    (fun () -> ignore (Controller.run { cfg with Controller.quorum = 10 }));
  Alcotest.check_raises "stream size mismatch"
    (Invalid_argument "Controller.run: stream fleet size mismatch")
    (fun () ->
      ignore
        (Controller.run
           {
             cfg with
             Controller.stream = Stream.default_config ~seed:42 ~nodes:5 ();
           }))

let contains ~affix s =
  let k = String.length affix and n = String.length s in
  let rec go i = i + k <= n && (String.sub s i k = affix || go (i + 1)) in
  go 0

let test_controller_dynamic_payload () =
  (* The legacy payload bytes are sacred: "dynamic" appears only when
     the mode is on. *)
  let static = payload_bytes (Controller.run (tight_case ())) in
  Alcotest.(check bool) "static payload has no dynamic key" false
    (contains ~affix:"dynamic" static);
  let dynamic_cfg =
    let cfg = Controller.default_config ~seed:42 ~ticks:8 ~dynamic:true ~nodes:9 () in
    { cfg with Controller.quorum = 7; target_live = Prob.Nines.to_prob 5. }
  in
  let o = Controller.run dynamic_cfg in
  let dynamic = payload_bytes o in
  Alcotest.(check bool) "dynamic payload flagged" true
    (contains ~affix:{|"dynamic": true|} dynamic);
  Alcotest.(check bool) "ingest payload flagged too" true
    (contains ~affix:{|"dynamic": true|}
       (Obs.Json.to_string (Controller.ingest_payload o)));
  (* And the dynamic run is itself deterministic. *)
  Alcotest.(check string) "dynamic run deterministic" dynamic
    (payload_bytes (Controller.run dynamic_cfg))

(* --- Wire parse/encode ---------------------------------------------- *)

let fleet_params nodes =
  {
    Service.Wire.nodes;
    ticks = 8;
    seed = 42;
    quorum = Some 7;
    target_nines = 5.;
    dynamic = false;
  }

let parse_ok body =
  match Service.Wire.parse_request body with
  | Ok r -> r
  | Error (_, code, msg) ->
      Alcotest.failf "parse failed: %s (%s)" (Service.Wire.code_string code) msg

let test_wire_roundtrip () =
  let q = Service.Wire.Fleet_recommend (fleet_params 9) in
  let r = parse_ok (Service.Wire.encode_request { Service.Wire.id = 5; query = q }) in
  Alcotest.(check int) "id" 5 r.Service.Wire.id;
  Alcotest.(check string) "canonical key survives the round-trip"
    (Service.Wire.canonical_key q)
    (Service.Wire.canonical_key r.Service.Wire.query);
  Alcotest.(check bool) "fleet queries are cacheable" true
    (Service.Wire.cacheable q)

let test_wire_normalizes () =
  (* Spelled-out defaults and the bare minimum must share a cache key;
     an explicit majority quorum normalizes away. *)
  let minimal =
    parse_ok {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9}}|}
  in
  let spelled =
    parse_ok
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "ticks": 26, "seed": 42, "quorum": 5, "target_nines": 3}}|}
  in
  Alcotest.(check string) "defaults normalize to one key"
    (Service.Wire.canonical_key minimal.Service.Wire.query)
    (Service.Wire.canonical_key spelled.Service.Wire.query)

let test_wire_bounds () =
  let reject params =
    match
      Service.Wire.parse_request
        (Printf.sprintf
           {|{"v": 3, "id": 0, "kind": "fleet_ingest", "params": %s}|} params)
    with
    | Error (_, Service.Wire.Bad_request, _) -> ()
    | Ok _ -> Alcotest.failf "params %s accepted" params
    | Error (_, code, msg) ->
        Alcotest.failf "params %s: wrong error %s (%s)" params
          (Service.Wire.code_string code) msg
  in
  reject {|{}|};
  reject {|{"nodes": 0}|};
  reject {|{"nodes": 257}|};
  reject {|{"nodes": 9, "ticks": 129}|};
  reject {|{"nodes": 9, "quorum": 10}|};
  reject {|{"nodes": 9, "target_nines": 13}|}

let test_wire_dynamic () =
  (* Absent and false are the same wire state — one cache key, the
     legacy bytes — while true round-trips and keys separately. *)
  let off = Service.Wire.Fleet_recommend (fleet_params 9) in
  let on =
    Service.Wire.Fleet_recommend { (fleet_params 9) with Service.Wire.dynamic = true }
  in
  let parsed =
    parse_ok
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "ticks": 8, "quorum": 7, "target_nines": 5, "dynamic": true}}|}
  in
  Alcotest.(check string) "dynamic round-trips"
    (Service.Wire.canonical_key on)
    (Service.Wire.canonical_key parsed.Service.Wire.query);
  Alcotest.(check bool) "distinct cache keys" true
    (Service.Wire.canonical_key on <> Service.Wire.canonical_key off);
  Alcotest.(check bool) "legacy key has no dynamic field" false
    (contains ~affix:"dynamic" (Service.Wire.canonical_key off));
  let explicit_false =
    parse_ok
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "ticks": 8, "quorum": 7, "target_nines": 5, "dynamic": false}}|}
  in
  Alcotest.(check string) "explicit false normalizes to the legacy key"
    (Service.Wire.canonical_key off)
    (Service.Wire.canonical_key explicit_false.Service.Wire.query);
  match
    Service.Wire.parse_request
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "dynamic": 1}}|}
  with
  | Error (_, Service.Wire.Bad_request, _) -> ()
  | Ok _ -> Alcotest.fail "non-boolean dynamic accepted"
  | Error (_, code, msg) ->
      Alcotest.failf "wrong error %s (%s)" (Service.Wire.code_string code) msg

let test_router_dynamic_matches_controller () =
  let dynamic_cfg =
    let cfg = Controller.default_config ~seed:42 ~ticks:8 ~dynamic:true ~nodes:9 () in
    { cfg with Controller.quorum = 7; target_live = Prob.Nines.to_prob 5. }
  in
  let direct = payload_bytes (Controller.run dynamic_cfg) in
  let query =
    Service.Wire.Fleet_recommend { (fleet_params 9) with Service.Wire.dynamic = true }
  in
  match Service.Router.handle query with
  | Ok payload ->
      Alcotest.(check string) "router dynamic == controller renderer" direct
        (Obs.Json.to_string payload)
  | Error (code, msg) ->
      Alcotest.failf "router failed: %s (%s)" (Service.Wire.code_string code) msg

(* --- Router and e2e byte identity ------------------------------------ *)

let router_payload query =
  match Service.Router.handle query with
  | Ok payload -> Obs.Json.to_string payload
  | Error (code, msg) ->
      Alcotest.failf "router failed: %s (%s)" (Service.Wire.code_string code) msg

let test_router_matches_controller () =
  (* The wire handler and the CLI's --json path must render the same
     bytes from the same parameters — one canonical payload. *)
  let direct = payload_bytes (Controller.run (tight_case ())) in
  Alcotest.(check string) "router == controller renderer" direct
    (router_payload (Service.Wire.Fleet_recommend (fleet_params 9)));
  let ingest =
    Obs.Json.to_string (Controller.ingest_payload (Controller.run (tight_case ())))
  in
  Alcotest.(check string) "ingest payload matches too" ingest
    (router_payload (Service.Wire.Fleet_ingest (fleet_params 9)))

let test_e2e_served_bytes () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server =
        Service.Server.start
          {
            Service.Server.default_config with
            Service.Server.socket_path = Some socket;
            workers = 2;
            queue_depth = 32;
            cache_capacity = 64;
          }
      in
      Fun.protect
        ~finally:(fun () -> Service.Server.stop server)
        (fun () ->
          let c =
            Service.Client.connect ~retry_for:5. (Service.Client.Unix_path socket)
          in
          Fun.protect
            ~finally:(fun () -> Service.Client.close c)
            (fun () ->
              let q = Service.Wire.Fleet_recommend (fleet_params 9) in
              let reply =
                match
                  Service.Client.call_line c ~id:3
                    (Service.Wire.encode_request { Service.Wire.id = 3; query = q })
                with
                | Ok reply -> reply
                | Error (code, msg) ->
                    Alcotest.failf "fleet call failed: %s (%s)"
                      (Service.Wire.code_string code) msg
              in
              (* The served payload is byte-for-byte the CLI's --json
                 output for the same parameters. *)
              let served =
                Service.Wire.encode_ok ~id:3
                  ~payload:(payload_bytes (Controller.run (tight_case ())))
              in
              Alcotest.(check string) "served bytes == canonical payload" served
                reply)))

(* --- DST system ------------------------------------------------------ *)

let test_dst_fleet_soak () =
  match
    Dst.Harness.soak (Dst.Fleet_case.system ()) ~seed:2025 ~episodes:8
  with
  | Dst.Harness.All_passed { episodes } ->
      Alcotest.(check int) "all episodes ran" 8 episodes
  | Dst.Harness.Found { failure; _ } ->
      Alcotest.failf "fleet invariant %S violated: %s"
        failure.Dst.Harness.invariant failure.Dst.Harness.detail

let test_dst_fleet_codec () =
  let sys = Dst.Fleet_case.system () in
  let rng = Prob.Rng.of_pair 99 0 in
  for _ = 1 to 20 do
    let case = sys.Dst.Harness.generate rng in
    match sys.Dst.Harness.decode (sys.Dst.Harness.encode case) with
    | Ok back ->
        if back <> case then Alcotest.fail "decode . encode is not the identity"
    | Error msg -> Alcotest.failf "generated case does not decode: %s" msg
  done

let test_dst_fleet_dynamic_codec () =
  let sys = Dst.Fleet_case.system () in
  let case =
    {
      Dst.Fleet_case.nodes = 9;
      ticks = 8;
      seed = 42;
      quorum = 7;
      target_nines = 5.;
      dynamic = true;
    }
  in
  let encoded = sys.Dst.Harness.encode case in
  Alcotest.(check bool) "dynamic encoded" true
    (contains ~affix:{|"dynamic": true|}
       (Obs.Json.to_string encoded.Dst.Repro.scenario));
  (match sys.Dst.Harness.decode encoded with
  | Ok back ->
      if back <> case then Alcotest.fail "dynamic decode . encode not identity"
  | Error msg -> Alcotest.failf "dynamic case does not decode: %s" msg);
  let static = { case with Dst.Fleet_case.dynamic = false } in
  Alcotest.(check bool) "static artifact keeps legacy bytes" false
    (contains ~affix:"dynamic"
       (Obs.Json.to_string (sys.Dst.Harness.encode static).Dst.Repro.scenario));
  (* Shrinking a failing dynamic case tries static first. *)
  match sys.Dst.Harness.candidates case with
  | first :: _ ->
      Alcotest.(check bool) "first shrink candidate disables dynamic" false
        first.Dst.Fleet_case.dynamic
  | [] -> Alcotest.fail "dynamic case must shrink"

let test_dst_fleet_registered () =
  Alcotest.(check bool) "fleet is a registry name" true
    (Dst.Registry.expand "fleet" = Ok [ "fleet" ]);
  match Dst.Registry.find ~seeded_bug:false "fleet" with
  | Ok (Dst.Registry.Packed sys) ->
      Alcotest.(check string) "system tag" "fleet" sys.Dst.Harness.name
  | Error msg -> Alcotest.fail msg

(* --- Incremental speed ----------------------------------------------- *)

(* Log-uniform fault probabilities over [0.001, 0.05]: the band a
   one-year horizon over datacenter AFR curves produces. *)
let log_uniform_probs rng n =
  let lo = log 0.001 and hi = log 0.05 in
  Array.init n (fun _ -> exp (lo +. (Prob.Rng.float rng *. (hi -. lo))))

let time_seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let test_incremental_beats_recompute () =
  (* The engine's own claim (EXPERIMENTS E22): at n = 10^4 a sustained
     window of single-node updates, drift refreshes included, costs at
     least 10x less per operation than a from-scratch DP of the same
     distribution. It guards the divide-out that per-node importance
     builds on; the §4 loop counts from scratch each tick and does not
     use the engine. *)
  let n = 10_000 and updates = 2_000 and recomputes = 3 in
  let rng = Prob.Rng.of_pair 42 n in
  let engine = Prob.Incremental.create (log_uniform_probs rng n) in
  (* Pre-draw the schedule so the timed window is all engine. *)
  let targets = Array.init updates (fun _ -> Prob.Rng.int rng n) in
  let fresh = log_uniform_probs rng updates in
  let inc =
    time_seconds (fun () ->
        for k = 0 to updates - 1 do
          Prob.Incremental.update engine targets.(k) fresh.(k)
        done)
  in
  let final = Prob.Incremental.probs engine in
  let full =
    time_seconds (fun () ->
        for _ = 1 to recomputes do
          ignore (Sys.opaque_identity (Prob.Poisson_binomial.pmf final))
        done)
  in
  let ratio =
    full /. float_of_int recomputes /. (inc /. float_of_int updates)
  in
  if ratio < 10. then
    Alcotest.failf
      "n=%d: %d updates (%d refreshes) took %.3f s, %d recomputes %.3f s: \
       only %.1fx per op, floor 10x"
      n updates
      (Prob.Incremental.refresh_count engine)
      inc recomputes full ratio

let suite =
  [
    Alcotest.test_case "stream determinism" `Quick test_stream_determinism;
    Alcotest.test_case "stream drift and replace" `Quick
      test_stream_drift_and_replace;
    Alcotest.test_case "stream dynamic determinism" `Quick
      test_stream_dynamic_determinism;
    Alcotest.test_case "stream ground-truth process" `Quick
      test_stream_ground_truth_process;
    Alcotest.test_case "controller dynamic payload" `Quick
      test_controller_dynamic_payload;
    Alcotest.test_case "wire dynamic flag" `Quick test_wire_dynamic;
    Alcotest.test_case "router dynamic matches controller" `Quick
      test_router_dynamic_matches_controller;
    Alcotest.test_case "dst fleet dynamic codec" `Quick
      test_dst_fleet_dynamic_codec;
    Alcotest.test_case "controller deterministic" `Quick
      test_controller_deterministic;
    Alcotest.test_case "controller recommends" `Quick test_controller_recommends;
    Alcotest.test_case "controller counts a resize's view-change quorum" `Quick
      test_controller_resize_quorum;
    Alcotest.test_case "controller validates config" `Quick
      test_controller_validates;
    Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire normalizes defaults" `Quick test_wire_normalizes;
    Alcotest.test_case "wire bounds" `Quick test_wire_bounds;
    Alcotest.test_case "router matches controller" `Quick
      test_router_matches_controller;
    Alcotest.test_case "e2e served bytes equal the CLI payload" `Quick
      test_e2e_served_bytes;
    Alcotest.test_case "dst fleet soak" `Quick test_dst_fleet_soak;
    Alcotest.test_case "dst fleet codec" `Quick test_dst_fleet_codec;
    Alcotest.test_case "dst fleet registered" `Quick test_dst_fleet_registered;
    Alcotest.test_case "incremental ≥10× recompute at n=10⁴" `Slow
      test_incremental_beats_recompute;
  ]
