(* The scenario spec and protocol registry: validation bounds, the
   canonical JSON encoding, parser totality (qcheck round-trips), and
   one named smoke test per registry entry — the CI registry-coverage
   gate greps for each protocol name as a string literal below. *)

open Probcons

let ok_exn = function
  | Ok s -> s
  | Error msg -> Alcotest.failf "unexpected scenario error: %s" msg

let scenario ?byz_fraction ?quorums ?stakes ?at ?seed ~protocol mix =
  ok_exn (Scenario.make ?byz_fraction ?quorums ?stakes ?at ?seed ~protocol ~mix ())

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected rejection" what
  | Error _ -> ()

(* --- Validation bounds ---------------------------------------------- *)

let test_make_bounds () =
  let make ?byz_fraction ?quorums ?stakes ?at ?seed ?(protocol = "raft") mix =
    Scenario.make ?byz_fraction ?quorums ?stakes ?at ?seed ~protocol ~mix ()
  in
  expect_error "empty mix" (make []);
  expect_error "zero count" (make [ (0, 0.1) ]);
  expect_error "negative count" (make [ (-3, 0.1) ]);
  expect_error "oversized group" (make [ (Scenario.max_fleet_nodes + 1, 0.1) ]);
  expect_error "oversized total"
    (make [ (Scenario.max_fleet_nodes, 0.1); (1, 0.1) ]);
  (* Per-group bound is checked before summing, so huge counts cannot
     wrap the total negative and slip past the fleet cap. *)
  expect_error "overflowing counts" (make [ (max_int / 2, 0.5); (2, 0.5) ]);
  expect_error "p above 1" (make [ (4, 1.5) ]);
  expect_error "p below 0" (make [ (4, -0.1) ]);
  expect_error "p nan" (make [ (4, Float.nan) ]);
  expect_error "byz above 1" (make ~byz_fraction:1.5 [ (4, 0.1) ]);
  expect_error "byz nan" (make ~byz_fraction:Float.nan [ (4, 0.1) ]);
  expect_error "empty protocol" (make ~protocol:"" [ (4, 0.1) ]);
  expect_error "protocol bad chars" (make ~protocol:"Raft!" [ (4, 0.1) ]);
  expect_error "protocol too long"
    (make ~protocol:(String.make 65 'a') [ (4, 0.1) ]);
  expect_error "quorum value bound"
    (make ~quorums:[ ("q_vc", 1001) ] [ (4, 0.1) ]);
  expect_error "quorum value negative"
    (make ~quorums:[ ("q_vc", -1) ] [ (4, 0.1) ]);
  expect_error "duplicate quorum key"
    (make ~quorums:[ ("q_vc", 3); ("q_vc", 4) ] [ (4, 0.1) ]);
  expect_error "too many quorum overrides"
    (make
       ~quorums:(List.init 9
                   (fun i -> (Printf.sprintf "k%d" i, 1)))
       [ (4, 0.1) ]);
  expect_error "non-positive stake" (make ~stakes:[ 1.0; 0.0 ] [ (2, 0.1) ]);
  expect_error "at non-positive" (make ~at:0.0 [ (4, 0.1) ]);
  expect_error "at nan" (make ~at:Float.nan [ (4, 0.1) ]);
  (* And the happy path keeps everything it was given. *)
  let s =
    scenario ~byz_fraction:0.25 ~quorums:[ ("q_vc", 4); ("q_per", 3) ]
      ~at:8760. ~seed:7 ~protocol:"raft" [ (3, 0.01); (2, 0.08) ]
  in
  Alcotest.(check string) "protocol" "raft" (Scenario.protocol s);
  Alcotest.(check int) "size" 5 (Scenario.size s);
  Alcotest.(check (option (float 0.))) "byz" (Some 0.25)
    (Scenario.byz_fraction s);
  Alcotest.(check (list (pair string int)))
    "quorums sorted" [ ("q_per", 3); ("q_vc", 4) ] (Scenario.quorums s);
  Alcotest.(check (option int)) "quorum lookup" (Some 4)
    (Scenario.quorum s "q_vc");
  Alcotest.(check (option int)) "seed" (Some 7) (Scenario.seed s)

let test_shorthand_equals_mix () =
  (* The n/p shorthand and the explicit one-group mix are the same
     scenario — same value, same canonical bytes, so the service cache
     treats them as one entry. *)
  let from_shorthand =
    ok_exn (Scenario.of_string {|{"n": 5, "p": 0.01}|})
  in
  let from_mix =
    ok_exn (Scenario.of_string {|{"protocol": "raft", "mix": [[5, 0.01]]}|})
  in
  let made = scenario ~protocol:"raft" [ (5, 0.01) ] in
  Alcotest.(check bool) "shorthand = mix" true
    (Scenario.equal from_shorthand from_mix);
  Alcotest.(check bool) "parsed = constructed" true
    (Scenario.equal from_mix made);
  Alcotest.(check string) "canonical bytes"
    {|{"protocol": "raft", "mix": [[5, 0.01]]}|}
    (Scenario.to_string made)

let test_of_json_rejects () =
  List.iter
    (fun (what, s) -> expect_error what (Scenario.of_string s))
    [
      ("not an object", {|[1, 2]|});
      ("no fleet", {|{"protocol": "raft"}|});
      ("n without p", {|{"n": 5}|});
      ("n zero", {|{"n": 0, "p": 0.5}|});
      ("n not an int", {|{"n": 5.5, "p": 0.5}|});
      ("mix group shape", {|{"mix": [[5]]}|});
      ("mix huge count", {|{"mix": [[1e30, 0.5]]}|});
      ("quorums not ints", {|{"n": 5, "p": 0.1, "quorums": {"q": 1.5}}|});
      ("stakes not numbers", {|{"n": 2, "p": 0.1, "stakes": ["a", "b"]}|});
      ("bad json", {|{"n": 5,|});
    ]

let test_transformers () =
  let s = Scenario.uniform ~protocol:"raft" ~n:3 ~p:0.01 () in
  let s' = Scenario.with_protocol "pbft" (Scenario.with_mix [ (7, 0.02) ] s) in
  Alcotest.(check string) "protocol swapped" "pbft" (Scenario.protocol s');
  Alcotest.(check int) "mix swapped" 7 (Scenario.size s');
  let s'' = Scenario.with_p 0.5 s' in
  Alcotest.(check (list (pair int (float 0.))))
    "with_p keeps counts" [ (7, 0.5) ] (Scenario.mix s'');
  Alcotest.check_raises "transformers re-validate"
    (Invalid_argument "Scenario: mix group counts must be in [1, 200]")
    (fun () -> ignore (Scenario.with_mix [ (201, 0.01) ] s))

(* --- Failure processes and horizons ---------------------------------- *)

let test_process_fields () =
  let processes =
    [
      Faultmodel.Failure_process.Static 0.02;
      Faultmodel.Failure_process.Markov
        { fail_rate = 1e-4; recover_rate = 1e-2 };
      Faultmodel.Failure_process.Curve (Faultmodel.Fault_curve.Constant 0.05);
    ]
  in
  let s =
    ok_exn
      (Scenario.make ~processes ~horizon:8766. ~rounds:4 ~protocol:"raft"
         ~mix:[ (3, 0.02) ] ())
  in
  Alcotest.(check (option (float 0.))) "horizon" (Some 8766.)
    (Scenario.horizon s);
  Alcotest.(check (option int)) "rounds" (Some 4) (Scenario.rounds s);
  Alcotest.(check int) "processes kept" 3
    (List.length (Scenario.effective_processes s));
  (* All three kinds survive the canonical encoding, value and bytes. *)
  let s' = ok_exn (Scenario.of_string (Scenario.to_string s)) in
  Alcotest.(check bool) "roundtrip equal" true (Scenario.equal s s');
  Alcotest.(check string) "canonical fixpoint" (Scenario.to_string s)
    (Scenario.to_string s');
  (* with_horizon after the fact is the same scenario as at birth. *)
  let grown =
    Scenario.with_horizon ~rounds:4
      8766.
      (ok_exn (Scenario.make ~processes ~protocol:"raft" ~mix:[ (3, 0.02) ] ()))
  in
  Alcotest.(check bool) "with_horizon = make" true (Scenario.equal s grown)

let test_legacy_bytes_without_processes () =
  (* The pre-process encoding is untouched: a scenario that doesn't use
     the new fields serializes to exactly the old bytes, with no
     processes/horizon/rounds keys for old parsers to trip on. *)
  let s = scenario ~protocol:"raft" [ (5, 0.01) ] in
  let bytes = Scenario.to_string s in
  Alcotest.(check string) "old bytes unchanged"
    {|{"protocol": "raft", "mix": [[5, 0.01]]}|} bytes;
  let contains key =
    let k = String.length key and n = String.length bytes in
    let rec go i = i + k <= n && (String.sub bytes i k = key || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "no %S key" key) false
        (contains key))
    [ "processes"; "horizon"; "rounds" ]

let test_process_rejects () =
  let make ?processes ?horizon ?rounds () =
    Scenario.make ?processes ?horizon ?rounds ~protocol:"raft"
      ~mix:[ (3, 0.02) ] ()
  in
  expect_error "process count mismatch"
    (make ~processes:[ Faultmodel.Failure_process.Static 0.5 ] ());
  expect_error "invalid process"
    (make
       ~processes:
         [
           Faultmodel.Failure_process.Static 0.5;
           Faultmodel.Failure_process.Markov
             { fail_rate = -1.; recover_rate = 0.1 };
           Faultmodel.Failure_process.Static 0.5;
         ]
       ());
  expect_error "rounds without horizon" (make ~rounds:4 ());
  expect_error "rounds above cap"
    (make ~horizon:100. ~rounds:(Scenario.max_rounds + 1) ());
  expect_error "rounds zero" (make ~horizon:100. ~rounds:0 ());
  expect_error "horizon non-positive" (make ~horizon:0. ());
  expect_error "horizon nan" (make ~horizon:Float.nan ());
  expect_error "markov bad rate in json"
    (Scenario.of_string
       {|{"protocol": "raft", "mix": [[1, 0.02]], "processes": [{"kind": "markov", "fail_rate": -1, "recover_rate": 0.1}]}|});
  expect_error "unknown process kind"
    (Scenario.of_string
       {|{"protocol": "raft", "mix": [[1, 0.02]], "processes": [{"kind": "weird"}]}|})

(* Each committed scenario file exercises one process kind; CI greps
   these filenames (and the kinds inside them) so every Failure_process
   constructor stays covered by a parsed-and-analyzed scenario. *)

let scenario_file name =
  let dir =
    match List.find_opt Sys.file_exists [ "scenarios"; "test/scenarios" ] with
    | Some d -> d
    | None -> Alcotest.fail "test scenario directory not found"
  in
  let path = Filename.concat dir name in
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  ok_exn (Scenario.of_string contents)

let process_kind = function
  | Faultmodel.Failure_process.Static _ -> "static"
  | Faultmodel.Failure_process.Curve _ -> "curve"
  | Faultmodel.Failure_process.Markov _ -> "markov"

let test_scenario_files () =
  List.iter
    (fun (file, kind) ->
      let s = scenario_file file in
      let processes = Scenario.effective_processes s in
      Alcotest.(check int)
        (file ^ " process per node")
        (Scenario.size s) (List.length processes);
      List.iter
        (fun p -> Alcotest.(check string) (file ^ " kind") kind (process_kind p))
        processes;
      Alcotest.(check bool) (file ^ " has horizon") true
        (Scenario.horizon s <> None);
      (match Registry.validate s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s rejected by registry: %s" file msg);
      match Registry.analyze_json s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s failed analysis: %s" file msg)
    [
      ("processes_static.json", "static");
      ("processes_markov.json", "markov");
      ("processes_curve.json", "curve");
    ]

(* --- qcheck round-trips --------------------------------------------- *)

let scenario_gen =
  let open QCheck.Gen in
  let prob = map (fun k -> float_of_int k /. 1000.) (int_range 0 1000) in
  let mix_gen =
    list_size (int_range 1 3) (pair (int_range 1 30) prob)
  in
  let quorums_gen =
    oneof
      [
        return [];
        map (fun v -> [ ("q_vc", v) ]) (int_range 1 20);
        map2 (fun a b -> [ ("q_per", a); ("q_vc", b) ])
          (int_range 1 20) (int_range 1 20);
      ]
  in
  let opt g = oneof [ return None; map Option.some g ] in
  let* protocol = oneofl [ "raft"; "pbft"; "upright"; "benor"; "stake" ] in
  let* mix = mix_gen in
  let* byz_fraction = opt prob in
  let* quorums = quorums_gen in
  let* stakes =
    opt (list_size (int_range 1 4) (map (fun k -> float_of_int k) (int_range 1 9)))
  in
  let* at = opt (map (fun k -> float_of_int k *. 10.) (int_range 1 10000)) in
  let* seed = opt (int_range 0 1000) in
  let* horizon =
    opt (map (fun k -> float_of_int k *. 100.) (int_range 1 100))
  in
  let* rounds =
    match horizon with
    | None -> return None
    | Some _ -> opt (int_range 1 Scenario.max_rounds)
  in
  let* processes =
    let expand kind =
      List.concat_map (fun (count, p) -> List.init count (fun _ -> kind p)) mix
    in
    oneofl
      [
        None;
        Some (expand (fun p -> Faultmodel.Failure_process.Static p));
        Some
          (expand (fun p ->
               Faultmodel.Failure_process.Curve
                 (Faultmodel.Fault_curve.Constant p)));
        Some
          (expand (fun _ ->
               Faultmodel.Failure_process.Markov
                 { fail_rate = 1e-4; recover_rate = 1e-2 }));
      ]
  in
  match
    Scenario.make ?byz_fraction ~quorums ?stakes ?processes ?at ?seed ?horizon
      ?rounds ~protocol ~mix ()
  with
  | Ok s -> return s
  | Error _ ->
      (* Only reachable via total-count overflow of the mix; shrink to
         the minimal valid scenario rather than discard. *)
      return (Scenario.uniform ~protocol ~n:3 ~p:0.01 ())

let scenario_arb =
  QCheck.make ~print:Scenario.to_string scenario_gen

let test_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"of_json (to_json s) = Ok s" ~count:500 scenario_arb
       (fun s ->
         match Scenario.of_json (Scenario.to_json s) with
         | Ok s' -> Scenario.equal s s'
         | Error _ -> false))

let test_string_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"of_string (to_string s) = Ok s" ~count:500
       scenario_arb (fun s ->
         match Scenario.of_string (Scenario.to_string s) with
         | Ok s' -> Scenario.equal s s' && Scenario.to_string s' = Scenario.to_string s
         | Error _ -> false))

(* --- Registry -------------------------------------------------------- *)

let analyze_name ?byz_fraction ?(n = 5) name =
  let s = scenario ?byz_fraction ~protocol:name [ (n, 0.01) ] in
  match Registry.analyze s with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* One smoke test per registry entry, each naming its protocol as a
   string literal: CI's registry-coverage step greps the test tree for
   every name printed by [probcons protocols --names]. *)

let test_registry_raft () =
  let r = analyze_name "raft" in
  Alcotest.(check bool) "raft analyzable" true (r.Analysis.p_safe_live > 0.9)

let test_registry_pbft () =
  let r = analyze_name ~n:7 "pbft" in
  Alcotest.(check bool) "pbft analyzable" true (r.Analysis.p_safe_live > 0.9)

let test_registry_pbft_forensics () =
  let r = analyze_name ~n:7 "pbft-forensics" in
  let plain = analyze_name ~n:7 "pbft" in
  (* Forensic support can only widen the acceptable outcomes. *)
  Alcotest.(check bool) "forensics >= pbft" true
    (r.Analysis.p_safe >= plain.Analysis.p_safe)

let test_registry_upright () =
  let r = analyze_name ~n:7 "upright" in
  Alcotest.(check bool) "upright analyzable" true (r.Analysis.p_safe_live > 0.9)

let test_registry_benor () =
  let r = analyze_name "benor" in
  Alcotest.(check bool) "benor analyzable" true (r.Analysis.p_safe_live > 0.9)

let test_registry_stake () =
  let r = analyze_name ~n:5 "stake" in
  Alcotest.(check bool) "stake analyzable" true (r.Analysis.p_safe_live > 0.)

let test_registry_quorum_availability () =
  let r = analyze_name "quorum-availability" in
  Alcotest.(check string) "synthetic engine" "quorum-availability"
    (r.Analysis.engine);
  Alcotest.(check (float 0.)) "pure availability" 1.0 r.Analysis.p_safe;
  (* A threshold has no predicate form, whatever its overrides: an
     out-of-range quorum is a validation error, but protocol_of still
     names the missing form. *)
  let bad_quorum =
    scenario ~quorums:[ ("quorum", 0) ] ~protocol:"quorum-availability"
      [ (5, 0.01) ]
  in
  Alcotest.(check (result unit string)) "quorum range checked"
    (Error "quorum must be in [1, 5]") (Registry.validate bad_quorum);
  List.iter
    (fun s ->
      Alcotest.(check (result string string)) "no predicate form"
        (Error "quorum-availability has no predicate form")
        (Result.map (fun p -> p.Protocol.name) (Registry.protocol_of s)))
    [ Scenario.uniform ~protocol:"quorum-availability" ~n:5 ~p:0.01 (); bad_quorum ]

let test_registry_rejects () =
  expect_error "unknown protocol"
    (Registry.validate (Scenario.uniform ~protocol:"paxos" ~n:3 ~p:0.01 ()));
  expect_error "unknown quorum key"
    (Registry.validate
       (scenario ~quorums:[ ("bogus", 2) ] ~protocol:"raft" [ (5, 0.01) ]));
  expect_error "stakes on non-stake model"
    (Registry.validate
       (scenario ~stakes:[ 1.; 1.; 1. ] ~protocol:"raft" [ (3, 0.01) ]));
  expect_error "enumeration cap"
    (Registry.validate (Scenario.uniform ~protocol:"stake" ~n:30 ~p:0.01 ()));
  Alcotest.(check bool) "find unknown" false (List.mem "paxos" (Registry.names ()));
  Alcotest.(check int) "nine entries" 9 (List.length (Registry.names ()))

let test_registry_byz_default () =
  (* The registry resolves the scenario's optional byz_fraction against
     the model default: for raft the default is 0 (crash-only), so
     forcing every fault Byzantine must hurt safety. *)
  let default = analyze_name "raft" in
  let byz = analyze_name ~byz_fraction:1.0 "raft" in
  Alcotest.(check bool) "byz override hurts raft safety" true
    (byz.Analysis.p_safe < default.Analysis.p_safe);
  Alcotest.(check (float 1e-12)) "default is crash-only"
    default.Analysis.p_safe
    (analyze_name ~byz_fraction:0.0 "raft").Analysis.p_safe

let test_payload_shape () =
  let s = Scenario.uniform ~protocol:"raft" ~n:5 ~p:0.01 () in
  match Registry.analyze_json s with
  | Error msg -> Alcotest.failf "analyze_json: %s" msg
  | Ok (Obs.Json.Obj fields) ->
      Alcotest.(check (list string))
        "canonical payload field order"
        [ "protocol"; "n"; "engine"; "p_safe"; "p_live"; "p_safe_live"; "nines" ]
        (List.map fst fields)
  | Ok _ -> Alcotest.fail "payload not an object"

let test_horizon_payload_shape () =
  (* A scenario with a horizon dispatches to the trajectory payload —
     its field order is as load-bearing as the flat one's. *)
  let s =
    Scenario.with_horizon ~rounds:3 8766.
      (Scenario.uniform ~protocol:"raft" ~n:5 ~p:0.01 ())
  in
  match Registry.analyze_json s with
  | Error msg -> Alcotest.failf "analyze_json horizon: %s" msg
  | Ok (Obs.Json.Obj fields) -> (
      Alcotest.(check (list string))
        "canonical horizon payload field order"
        [ "protocol"; "n"; "horizon"; "rounds"; "min_p_live"; "trajectory" ]
        (List.map fst fields);
      match List.assoc "trajectory" fields with
      | Obs.Json.List points ->
          Alcotest.(check int) "one point per round" 3 (List.length points);
          List.iter
            (function
              | Obs.Json.Obj (("at", _) :: _) -> ()
              | _ -> Alcotest.fail "trajectory point must lead with at")
            points
      | _ -> Alcotest.fail "trajectory not a list")
  | Ok _ -> Alcotest.fail "payload not an object"

let suite =
  [
    Alcotest.test_case "make bounds" `Quick test_make_bounds;
    Alcotest.test_case "shorthand equals mix" `Quick test_shorthand_equals_mix;
    Alcotest.test_case "of_json rejects" `Quick test_of_json_rejects;
    Alcotest.test_case "transformers" `Quick test_transformers;
    Alcotest.test_case "process fields" `Quick test_process_fields;
    Alcotest.test_case "legacy bytes without processes" `Quick
      test_legacy_bytes_without_processes;
    Alcotest.test_case "process rejects" `Quick test_process_rejects;
    Alcotest.test_case "scenario files" `Quick test_scenario_files;
    test_json_roundtrip;
    test_string_roundtrip;
    Alcotest.test_case "registry raft" `Quick test_registry_raft;
    Alcotest.test_case "registry pbft" `Quick test_registry_pbft;
    Alcotest.test_case "registry pbft-forensics" `Quick
      test_registry_pbft_forensics;
    Alcotest.test_case "registry upright" `Quick test_registry_upright;
    Alcotest.test_case "registry benor" `Quick test_registry_benor;
    Alcotest.test_case "registry stake" `Quick test_registry_stake;
    Alcotest.test_case "registry quorum-availability" `Quick
      test_registry_quorum_availability;
    Alcotest.test_case "registry rejects" `Quick test_registry_rejects;
    Alcotest.test_case "registry byz default" `Quick test_registry_byz_default;
    Alcotest.test_case "payload shape" `Quick test_payload_shape;
    Alcotest.test_case "horizon payload shape" `Quick
      test_horizon_payload_shape;
  ]
