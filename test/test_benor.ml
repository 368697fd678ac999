(* Tests for Ben-Or randomized consensus: the executable protocol and
   its analytical reliability model. *)

open Benor_sim

let all n = List.init n Fun.id

let run ?(seed = 7) ?(crash = []) ?(until = 1e7) initial_values =
  let cluster = Benor_cluster.create ~seed ~initial_values () in
  if crash <> [] then
    Benor_cluster.inject cluster (Dessim.Fault_injector.of_failed_nodes ~at:1. crash);
  Benor_cluster.run cluster ~until;
  let n = List.length initial_values in
  let correct = List.filter (fun i -> not (List.mem i crash)) (all n) in
  (cluster, Benor_cluster.check cluster ~correct)

let test_unanimous_decides_first_round () =
  let cluster, report = run [ 1; 1; 1; 1; 1 ] in
  Alcotest.(check bool) "agreement" true report.Benor_cluster.agreement_ok;
  Alcotest.(check bool) "validity" true report.Benor_cluster.validity_ok;
  Alcotest.(check bool) "all decided" true report.Benor_cluster.all_correct_decided;
  Alcotest.(check int) "one round" 1 report.Benor_cluster.max_round;
  for i = 0 to 4 do
    Alcotest.(check (option int)) "decided 1" (Some 1)
      (Benor_node.decision (Benor_cluster.node cluster i))
  done

let test_unanimous_zero () =
  let _, report = run ~seed:8 [ 0; 0; 0 ] in
  Alcotest.(check bool) "all decided" true report.Benor_cluster.all_correct_decided;
  List.iter
    (fun (_, d) -> Alcotest.(check (option int)) "decided 0" (Some 0) d)
    report.Benor_cluster.decisions

let test_split_inputs_terminate_and_agree () =
  let _, report = run ~seed:9 [ 0; 1; 0; 1; 0 ] in
  Alcotest.(check bool) "agreement" true report.Benor_cluster.agreement_ok;
  Alcotest.(check bool) "validity" true report.Benor_cluster.validity_ok;
  Alcotest.(check bool) "all decided" true report.Benor_cluster.all_correct_decided

let test_tolerates_f_crashes () =
  let _, report = run ~seed:10 ~crash:[ 0; 1 ] [ 0; 1; 1; 0; 1 ] in
  Alcotest.(check bool) "agreement" true report.Benor_cluster.agreement_ok;
  Alcotest.(check bool) "correct nodes decided" true report.Benor_cluster.all_correct_decided

let test_too_many_crashes_stall_safely () =
  (* 3 of 5 crashed: n - f = 3 > 2 survivors, so no collection
     completes — no termination, but no disagreement either. *)
  let _, report = run ~seed:11 ~crash:[ 0; 1; 2 ] ~until:100_000. [ 0; 1; 1; 0; 1 ] in
  Alcotest.(check bool) "agreement trivially holds" true report.Benor_cluster.agreement_ok;
  Alcotest.(check bool) "not all decided" false report.Benor_cluster.all_correct_decided

let test_determinism () =
  let decide seed =
    let _, report = run ~seed [ 0; 1; 1; 0; 0 ] in
    report.Benor_cluster.decisions
  in
  Alcotest.(check bool) "same seed, same run" true (decide 21 = decide 21)

let test_mid_run_crash () =
  let cluster = Benor_cluster.create ~seed:12 ~initial_values:[ 0; 1; 0; 1; 1 ] () in
  Benor_cluster.inject cluster [ (0, Dessim.Fault_injector.Crash_at 15.) ];
  Benor_cluster.run cluster ~until:1e7;
  let report = Benor_cluster.check cluster ~correct:[ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "agreement" true report.Benor_cluster.agreement_ok;
  Alcotest.(check bool) "survivors decided" true report.Benor_cluster.all_correct_decided

let test_byzantine_injection_rejected () =
  (* The injector schedules the fault; the rejection surfaces when the
     event executes. *)
  let cluster = Benor_cluster.create ~seed:13 ~initial_values:[ 0; 1; 0 ] () in
  Benor_cluster.inject cluster [ (0, Dessim.Fault_injector.Byzantine_from 0.) ];
  Alcotest.check_raises "crash-only"
    (Invalid_argument "Ben-Or (this variant) is crash-fault tolerant only") (fun () ->
      Benor_cluster.run cluster ~until:10.)

let test_config_validation () =
  let engine = Dessim.Engine.create () in
  let net = Dessim.Network.create ~engine ~n:3 () in
  let config = { (Benor_node.default_config ~id:0 ~n:3) with Benor_node.f = 2 } in
  Alcotest.check_raises "2f < n" (Invalid_argument "Benor_node.create: requires 2f < n")
    (fun () ->
      ignore
        (Benor_node.create config ~engine ~net ~trace:(Dessim.Trace.create ())
           ~initial:0));
  let _, report = run ~seed:1 [ 1 ] in
  Alcotest.(check int) "singleton ok" 1 (List.length report.Benor_cluster.decisions)

let prop_agreement_and_validity_always =
  QCheck.Test.make ~count:15 ~name:"random inputs and crashes: agreement + validity"
    QCheck.(pair (int_range 0 31) (int_range 0 1000))
    (fun (input_bits, seed) ->
      let inputs = List.init 5 (fun i -> (input_bits lsr i) land 1) in
      let rng = Prob.Rng.create seed in
      let crash = Prob.Rng.sample_without_replacement rng (Prob.Rng.int rng 3) 5 in
      let _, report = run ~seed ~crash inputs in
      report.Benor_cluster.agreement_ok && report.Benor_cluster.validity_ok
      && report.Benor_cluster.all_correct_decided)

let mean_rounds ?common_coin n trials =
  let total = ref 0 in
  for seed = 1 to trials do
    let cluster =
      Benor_cluster.create ~seed ?common_coin
        ~initial_values:(List.init n (fun i -> i mod 2))
        ()
    in
    Benor_cluster.run cluster ~until:1e8;
    let report = Benor_cluster.check cluster ~correct:(all n) in
    if not (report.Benor_cluster.agreement_ok && report.Benor_cluster.all_correct_decided)
    then Alcotest.fail "run failed";
    total := !total + report.Benor_cluster.max_round
  done;
  float_of_int !total /. float_of_int trials

let test_common_coin_correct () =
  let cluster =
    Benor_cluster.create ~seed:5 ~common_coin:42 ~initial_values:[ 0; 1; 0; 1; 1 ] ()
  in
  Benor_cluster.inject cluster (Dessim.Fault_injector.of_failed_nodes ~at:1. [ 0 ]);
  Benor_cluster.run cluster ~until:1e7;
  let report = Benor_cluster.check cluster ~correct:[ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "agreement" true report.Benor_cluster.agreement_ok;
  Alcotest.(check bool) "validity" true report.Benor_cluster.validity_ok;
  Alcotest.(check bool) "all decided" true report.Benor_cluster.all_correct_decided

let test_common_coin_collapses_rounds () =
  (* With a shared per-round coin all undecided nodes flip the same
     way, so expected rounds are O(1) instead of growing with n. *)
  let local = mean_rounds 9 25 in
  let common = mean_rounds ~common_coin:42 9 25 in
  Alcotest.(check bool)
    (Printf.sprintf "common %.1f < local %.1f" common local)
    true (common < local);
  Alcotest.(check bool) "common coin is O(1)-ish" true (common < 4.)

(* --- Analytical model ------------------------------------------------ *)

let test_model_validation () =
  Alcotest.check_raises "2f < n" (Invalid_argument "Benor_model.make: requires 2f < n")
    (fun () -> ignore (Probcons.Benor_model.make ~n:4 ~f:2));
  let p = Probcons.Benor_model.default 7 in
  Alcotest.(check int) "f" 3 p.Probcons.Benor_model.f

let test_model_crashes_never_break_safety () =
  let proto = Probcons.Benor_model.protocol (Probcons.Benor_model.default 5) in
  let all_crashed = Array.make 5 Probcons.Config.Crashed in
  Alcotest.(check bool) "safe under total crash" true
    (proto.Probcons.Protocol.safe.Probcons.Protocol.full all_crashed);
  let one_byz = [| Probcons.Config.Byzantine; Correct; Correct; Correct; Correct |] in
  Alcotest.(check bool) "byz voids safety" false
    (proto.Probcons.Protocol.safe.Probcons.Protocol.full one_byz)

let test_model_liveness_matches_raft_majority () =
  (* Odd n: Ben-Or's f = (n-1)/2 equals Raft's crash tolerance, so the
     liveness probabilities coincide on a crash-only fleet. *)
  let fleet = Faultmodel.Fleet.uniform ~n:5 ~p:0.05 () in
  let benor =
    Probcons.Analysis.run (Probcons.Benor_model.protocol (Probcons.Benor_model.default 5)) fleet
  in
  let raft =
    Probcons.Analysis.run (Probcons.Raft_model.protocol (Probcons.Raft_model.default 5)) fleet
  in
  Alcotest.(check (float 1e-12)) "same liveness" raft.Probcons.Analysis.p_live
    benor.Probcons.Analysis.p_live;
  (* But Ben-Or's safety is immune to crash counts (certain here). *)
  Alcotest.(check (float 1e-12)) "safety certain" 1. benor.Probcons.Analysis.p_safe

let test_simulation_matches_model_liveness () =
  (* Crash probability 30%: run many sampled configurations and compare
     the termination rate against the analytical liveness. *)
  let n = 5 and p = 0.3 in
  let fleet = Faultmodel.Fleet.uniform ~n ~p () in
  let analytical =
    Probcons.Analysis.run (Probcons.Benor_model.protocol (Probcons.Benor_model.default n)) fleet
  in
  let rng = Prob.Rng.create 55 in
  let trials = 60 in
  let live = ref 0 in
  for seed = 1 to trials do
    let crash = ref [] in
    for u = 0 to n - 1 do
      if Prob.Rng.bool rng p then crash := u :: !crash
    done;
    let _, report = run ~seed ~crash:!crash [ 0; 1; 1; 0; 1 ] in
    if report.Benor_cluster.all_correct_decided && !crash <> all n then incr live
    else if !crash = all n then incr live (* vacuously live *)
  done;
  let low, high = Prob.Montecarlo.wilson_interval ~successes:!live ~trials in
  Alcotest.(check bool)
    (Printf.sprintf "analytical %.3f in [%.3f, %.3f]" analytical.Probcons.Analysis.p_live
       low high)
    true
    (analytical.Probcons.Analysis.p_live >= low -. 0.02
    && analytical.Probcons.Analysis.p_live <= high +. 0.02)

let suite =
  [
    Alcotest.test_case "unanimous decides round 1" `Quick test_unanimous_decides_first_round;
    Alcotest.test_case "unanimous zero" `Quick test_unanimous_zero;
    Alcotest.test_case "split inputs" `Quick test_split_inputs_terminate_and_agree;
    Alcotest.test_case "tolerates f crashes" `Quick test_tolerates_f_crashes;
    Alcotest.test_case "too many crashes stall safely" `Quick
      test_too_many_crashes_stall_safely;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "mid-run crash" `Quick test_mid_run_crash;
    Alcotest.test_case "byzantine rejected" `Quick test_byzantine_injection_rejected;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    QCheck_alcotest.to_alcotest prop_agreement_and_validity_always;
    Alcotest.test_case "common coin correct" `Quick test_common_coin_correct;
    Alcotest.test_case "common coin collapses rounds" `Slow
      test_common_coin_collapses_rounds;
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "model safety under crashes" `Quick
      test_model_crashes_never_break_safety;
    Alcotest.test_case "model liveness = raft majority" `Quick
      test_model_liveness_matches_raft_majority;
    Alcotest.test_case "simulation matches model" `Slow test_simulation_matches_model_liveness;
  ]
