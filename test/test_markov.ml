(* Tests for the markov library: linear algebra, CTMCs, and the
   consensus repair model, cross-checked against closed forms. *)

open Markov

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Linalg ------------------------------------------------------------ *)

let test_solve_known_system () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 5.; 10. |] in
  let x = Linalg.solve a b in
  check_float ~eps:1e-12 "x0" 1. x.(0);
  check_float ~eps:1e-12 "x1" 3. x.(1);
  (* Inputs untouched. *)
  check_float "a intact" 2. a.(0).(0);
  check_float "b intact" 5. b.(0)

let test_solve_requires_pivoting () =
  (* Zero on the diagonal forces a row swap. *)
  let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Linalg.solve a [| 2.; 3. |] in
  check_float "x0" 3. x.(0);
  check_float "x1" 2. x.(1)

let test_solve_singular () =
  let a = [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular matrix") (fun () ->
      ignore (Linalg.solve a [| 1.; 2. |]))

let test_matrix_helpers () =
  let m = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let z = Linalg.make 2 3 in
  Alcotest.(check int) "make rows" 2 (Array.length z);
  check_float "make zero" 0. z.(1).(2);
  let c = Linalg.copy m in
  c.(0).(0) <- 99.;
  check_float "copy is deep" 1. m.(0).(0)

let test_nullspace_two_state () =
  (* Two-state chain: 0 -> 1 at rate 2, 1 -> 0 at rate 1.
     Stationary: pi = (1/3, 2/3). *)
  let q = [| [| -2.; 2. |]; [| 1.; -1. |] |] in
  let pi = Linalg.solve_normalized_nullspace q in
  check_float ~eps:1e-12 "pi0" (1. /. 3.) pi.(0);
  check_float ~eps:1e-12 "pi1" (2. /. 3.) pi.(1)

(* --- Ctmc --------------------------------------------------------------- *)

let test_ctmc_validation () =
  let chain = Ctmc.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Ctmc.add_rate: self-loop")
    (fun () -> Ctmc.add_rate chain ~src:0 ~dst:0 1.);
  Alcotest.check_raises "negative rate" (Invalid_argument "Ctmc.add_rate: negative rate")
    (fun () -> Ctmc.add_rate chain ~src:0 ~dst:1 (-1.));
  Alcotest.check_raises "range" (Invalid_argument "Ctmc.add_rate: state out of range")
    (fun () -> Ctmc.add_rate chain ~src:0 ~dst:5 1.)

let test_ctmc_generator_rows_sum_zero () =
  let chain = Ctmc.create 3 in
  Ctmc.add_rate chain ~src:0 ~dst:1 2.;
  Ctmc.add_rate chain ~src:0 ~dst:2 3.;
  Ctmc.add_rate chain ~src:1 ~dst:0 1.;
  let q = Ctmc.generator chain in
  for i = 0 to 2 do
    check_float ~eps:1e-12
      (Printf.sprintf "row %d" i)
      0.
      (Array.fold_left ( +. ) 0. q.(i))
  done

let test_ctmc_birth_death_steady_state () =
  (* M/M/1/2 queue: arrivals 1, service 2. pi_k ~ (1/2)^k. *)
  let chain = Ctmc.create 3 in
  Ctmc.add_rate chain ~src:0 ~dst:1 1.;
  Ctmc.add_rate chain ~src:1 ~dst:2 1.;
  Ctmc.add_rate chain ~src:1 ~dst:0 2.;
  Ctmc.add_rate chain ~src:2 ~dst:1 2.;
  let pi = Ctmc.steady_state chain in
  let z = 1. +. 0.5 +. 0.25 in
  check_float ~eps:1e-12 "pi0" (1. /. z) pi.(0);
  check_float ~eps:1e-12 "pi1" (0.5 /. z) pi.(1);
  check_float ~eps:1e-12 "pi2" (0.25 /. z) pi.(2)

let test_ctmc_absorption_time_two_state () =
  (* Single transition at rate lambda: expected time 1/lambda. *)
  let chain = Ctmc.create 2 in
  Ctmc.add_rate chain ~src:0 ~dst:1 0.25;
  check_float ~eps:1e-12 "1/lambda" 4.
    (Ctmc.expected_time_to_absorption chain ~absorbing:(fun s -> s = 1) ~start:0);
  check_float "absorbing start" 0.
    (Ctmc.expected_time_to_absorption chain ~absorbing:(fun s -> s = 1) ~start:1)

let test_ctmc_absorption_time_pure_death () =
  (* Chain 0 -> 1 -> 2 with rates 2 then 4: E = 1/2 + 1/4. *)
  let chain = Ctmc.create 3 in
  Ctmc.add_rate chain ~src:0 ~dst:1 2.;
  Ctmc.add_rate chain ~src:1 ~dst:2 4.;
  check_float ~eps:1e-12 "sum of stage times" 0.75
    (Ctmc.expected_time_to_absorption chain ~absorbing:(fun s -> s = 2) ~start:0)

let test_ctmc_absorption_unreachable () =
  let chain = Ctmc.create 3 in
  Ctmc.add_rate chain ~src:0 ~dst:1 1.;
  Ctmc.add_rate chain ~src:1 ~dst:0 1.;
  (* State 2 unreachable: infinite expected time (singular system). *)
  Alcotest.(check bool) "infinite" true
    (Ctmc.expected_time_to_absorption chain ~absorbing:(fun s -> s = 2) ~start:0
     = infinity)

let test_ctmc_simulation_agrees_with_absorption () =
  let chain = Ctmc.create 2 in
  Ctmc.add_rate chain ~src:0 ~dst:1 0.5;
  let rng = Prob.Rng.create 61 in
  let total = ref 0. and n = 2000 in
  for _ = 1 to n do
    match List.rev (Ctmc.simulate chain rng ~start:0 ~horizon:1e9) with
    | (t, 1) :: _ -> total := !total +. t
    | _ -> Alcotest.fail "must absorb"
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean ~ 2" true (Float.abs (mean -. 2.) < 0.15)

let test_ctmc_transient_two_state_closed_form () =
  (* On/off chain, fail rate lambda, recover rate mu, started up:
     P(down at t) = pi_down * (1 - e^{-(lambda+mu) t}). *)
  let lambda = 2e-4 and mu = 5e-3 in
  let chain = Ctmc.create 2 in
  Ctmc.add_rate chain ~src:0 ~dst:1 lambda;
  Ctmc.add_rate chain ~src:1 ~dst:0 mu;
  List.iter
    (fun t ->
      let dist = Ctmc.transient chain ~p0:[| 1.; 0. |] ~t in
      let pi = lambda /. (lambda +. mu) in
      let expected = pi *. (1. -. exp (-.(lambda +. mu) *. t)) in
      check_float ~eps:1e-9 (Printf.sprintf "p_down at %g" t) expected dist.(1);
      check_float ~eps:1e-9
        (Printf.sprintf "mass conserved at %g" t)
        1.
        (dist.(0) +. dist.(1)))
    [ 0.; 1.; 100.; 8766.; 1e6 ]

let test_failure_process_markov_matches_ctmc () =
  (* The Failure_process Markov marginal is the analytic transient of
     the very same two-state CTMC — cross-validate the closed form in
     faultmodel against the matrix-exponential path in this library. *)
  List.iter
    (fun (fail_rate, recover_rate) ->
      let process =
        Faultmodel.Failure_process.Markov { fail_rate; recover_rate }
      in
      let chain = Ctmc.create 2 in
      Ctmc.add_rate chain ~src:0 ~dst:1 fail_rate;
      Ctmc.add_rate chain ~src:1 ~dst:0 recover_rate;
      List.iter
        (fun t ->
          let dist = Ctmc.transient chain ~p0:[| 1.; 0. |] ~t in
          check_float ~eps:1e-9
            (Printf.sprintf "marginal(%g,%g) at %g" fail_rate recover_rate t)
            dist.(1)
            (Faultmodel.Failure_process.marginal process t))
        [ 0.; 0.5; 24.; 720.; 8766.; 5e4 ])
    [ (2e-4, 5e-3); (1e-3, 1e-3); (5e-2, 1e-4); (1e-6, 1.) ]

(* --- Repair model --------------------------------------------------------- *)

let test_repair_single_node () =
  (* n=1, quorum=1: MTTF = 1/lambda, availability = mu/(lambda+mu). *)
  let spec = { Repair_model.n = 1; quorum = 1; lambda = 0.01; mu = 1. } in
  check_float ~eps:1e-9 "mttf" 100. (Repair_model.mttf spec);
  check_float ~eps:1e-9 "mttr = 1/mu" 1. (Repair_model.mtbf spec -. Repair_model.mttf spec);
  check_float ~eps:1e-9 "availability" (1. /. 1.01) (Repair_model.availability spec)

let test_repair_mttdl_raid1_closed_form () =
  (* Two copies: MTTDL = (3 lambda + mu) / (2 lambda^2). *)
  let lambda = 1e-4 and mu = 0.1 in
  let spec = { Repair_model.n = 3; quorum = 2; lambda; mu } in
  let expected = ((3. *. lambda) +. mu) /. (2. *. lambda *. lambda) in
  let actual = Repair_model.mttdl spec in
  Alcotest.(check bool) "closed form" true (Float.abs (actual -. expected) /. expected < 1e-9)

let test_repair_mttf_grows_with_n () =
  let spec n = { Repair_model.n; quorum = (n / 2) + 1; lambda = 1e-4; mu = 0.05 } in
  let m3 = Repair_model.mttf (spec 3) in
  let m5 = Repair_model.mttf (spec 5) in
  let m7 = Repair_model.mttf (spec 7) in
  Alcotest.(check bool) "3 < 5" true (m3 < m5);
  Alcotest.(check bool) "5 < 7" true (m5 < m7)

let test_repair_availability_improves_with_repair_rate () =
  let spec mu = { Repair_model.n = 3; quorum = 2; lambda = 1e-3; mu } in
  Alcotest.(check bool) "faster repair, higher availability" true
    (Repair_model.availability (spec 1.) > Repair_model.availability (spec 0.01))

let test_repair_of_afr () =
  let spec = Repair_model.of_afr ~n:5 ~quorum:3 ~afr:0.08 ~mttr_hours:24. in
  check_float ~eps:1e-12 "mu" (1. /. 24.) spec.Repair_model.mu;
  (* Lambda must invert to the AFR over a year. *)
  check_float ~eps:1e-9 "lambda inverts" 0.08
    (1. -. exp (-.spec.Repair_model.lambda *. 8766.));
  Alcotest.check_raises "bad afr"
    (Invalid_argument "Repair_model.of_afr: afr must be in (0,1)") (fun () ->
      ignore (Repair_model.of_afr ~n:3 ~quorum:2 ~afr:1.5 ~mttr_hours:24.))

let test_repair_mtbf_identity () =
  (* n=3, quorum=2: quorum is lost at 2 failures. From there a repair
     (2 mu) restores it, or a third failure (lambda) waits for one of
     three repairs (3 mu) first: MTTR = (3 mu + lambda) / (6 mu^2). *)
  let lambda = 1e-3 and mu = 0.1 in
  let spec = { Repair_model.n = 3; quorum = 2; lambda; mu } in
  check_float ~eps:1e-6 "mtbf = mttf + mttr"
    (Repair_model.mttf spec +. (((3. *. mu) +. lambda) /. (6. *. mu *. mu)))
    (Repair_model.mtbf spec)

let test_repair_mttdl_exceeds_mttf () =
  (* Losing all copies of committed data requires strictly more
     failures than losing the quorum. *)
  let spec = { Repair_model.n = 5; quorum = 3; lambda = 1e-4; mu = 0.05 } in
  Alcotest.(check bool) "mttdl > mttf" true
    (Repair_model.mttdl spec > Repair_model.mttf spec)

let prop_availability_in_unit_interval =
  QCheck.Test.make ~count:50 ~name:"availability in [0,1]"
    QCheck.(triple (int_range 1 4) (float_bound_inclusive 0.01) (float_bound_inclusive 1.))
    (fun (half, lambda, mu) ->
      QCheck.assume (lambda > 1e-6 && mu > 1e-3);
      let n = (2 * half) + 1 in
      let spec = { Repair_model.n; quorum = half + 1; lambda; mu } in
      let a = Repair_model.availability spec in
      a >= 0. && a <= 1.)

let suite =
  [
    Alcotest.test_case "solve known system" `Quick test_solve_known_system;
    Alcotest.test_case "solve with pivoting" `Quick test_solve_requires_pivoting;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "matrix helpers" `Quick test_matrix_helpers;
    Alcotest.test_case "nullspace two-state" `Quick test_nullspace_two_state;
    Alcotest.test_case "ctmc validation" `Quick test_ctmc_validation;
    Alcotest.test_case "generator rows sum to zero" `Quick test_ctmc_generator_rows_sum_zero;
    Alcotest.test_case "birth-death steady state" `Quick test_ctmc_birth_death_steady_state;
    Alcotest.test_case "absorption two-state" `Quick test_ctmc_absorption_time_two_state;
    Alcotest.test_case "absorption pure death" `Quick test_ctmc_absorption_time_pure_death;
    Alcotest.test_case "absorption unreachable" `Quick test_ctmc_absorption_unreachable;
    Alcotest.test_case "simulation agrees" `Slow test_ctmc_simulation_agrees_with_absorption;
    Alcotest.test_case "transient two-state closed form" `Quick
      test_ctmc_transient_two_state_closed_form;
    Alcotest.test_case "failure process matches ctmc" `Quick
      test_failure_process_markov_matches_ctmc;
    Alcotest.test_case "repair single node" `Quick test_repair_single_node;
    Alcotest.test_case "mttdl RAID1 closed form" `Quick test_repair_mttdl_raid1_closed_form;
    Alcotest.test_case "mttf grows with n" `Quick test_repair_mttf_grows_with_n;
    Alcotest.test_case "availability vs repair rate" `Quick
      test_repair_availability_improves_with_repair_rate;
    Alcotest.test_case "of_afr" `Quick test_repair_of_afr;
    Alcotest.test_case "mtbf identity" `Quick test_repair_mtbf_identity;
    Alcotest.test_case "mttdl exceeds mttf" `Quick test_repair_mttdl_exceeds_mttf;
    QCheck_alcotest.to_alcotest prop_availability_in_unit_interval;
  ]
