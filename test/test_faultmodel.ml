(* Tests for the faultmodel library: curves, nodes, fleets, correlated
   failures, telemetry estimation. *)

open Faultmodel

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let hours_per_year = 8766.

let curve_string c =
  Obs.Json.to_string (Faultmodel.Failure_process.to_json (Faultmodel.Failure_process.Curve c))

(* --- Fault_curve ---------------------------------------------------- *)

let test_constant_clamp () =
  check_float "clamped high" 1. (Fault_curve.eval (Fault_curve.constant 2.) 5.);
  check_float "clamped low" 0. (Fault_curve.eval (Fault_curve.constant (-1.)) 5.);
  check_float "time-invariant" 0.25 (Fault_curve.eval (Fault_curve.constant 0.25) 1e9)

let test_exponential_curve () =
  let curve = Fault_curve.Exponential { rate = 1e-4 } in
  check_float "at zero" 0. (Fault_curve.eval curve 0.);
  check_float ~eps:1e-12 "one mean" (1. -. exp (-1.)) (Fault_curve.eval curve 1e4);
  Alcotest.(check bool) "monotone" true
    (Fault_curve.eval curve 100. < Fault_curve.eval curve 200.)

let test_afr_roundtrip () =
  List.iter
    (fun afr ->
      check_float ~eps:1e-12 (Printf.sprintf "afr %g" afr) afr
        (Fault_curve.eval (Fault_curve.of_afr afr) hours_per_year))
    [ 0.01; 0.04; 0.08; 0.5 ]

let test_bathtub_piecewise () =
  let curve =
    Fault_curve.Bathtub
      {
        infant = Fault_curve.constant 0.3;
        useful = Fault_curve.constant 0.01;
        wearout = Fault_curve.constant 0.6;
        t1 = 100.;
        t2 = 1000.;
      }
  in
  check_float "infant region" 0.3 (Fault_curve.eval curve 50.);
  check_float "useful region" 0.01 (Fault_curve.eval curve 500.);
  check_float "wearout region" 0.6 (Fault_curve.eval curve 2000.)

let test_empirical_interpolation () =
  let curve = Fault_curve.Empirical [| (0., 0.); (10., 0.5); (20., 1.) |] in
  check_float "below range" 0. (Fault_curve.eval curve (-5.));
  check_float "above range" 1. (Fault_curve.eval curve 100.);
  check_float "exact point" 0.5 (Fault_curve.eval curve 10.);
  check_float "interpolated" 0.25 (Fault_curve.eval curve 5.);
  check_float "interpolated upper" 0.75 (Fault_curve.eval curve 15.)

let test_empirical_empty_and_degenerate () =
  check_float "empty" 0. (Fault_curve.eval (Fault_curve.Empirical [||]) 5.);
  (* Duplicate time points must not divide by zero. *)
  let dup = Fault_curve.Empirical [| (5., 0.2); (5., 0.8) |] in
  let v = Fault_curve.eval dup 5. in
  Alcotest.(check bool) "degenerate segment" true (v = 0.2 || v = 0.8)

let test_scaled_curve () =
  let base = Fault_curve.constant 0.4 in
  check_float "scaled" 0.2 (Fault_curve.eval (Fault_curve.Scaled { factor = 0.5; curve = base }) 1.);
  check_float "scaled clamped" 1.
    (Fault_curve.eval (Fault_curve.Scaled { factor = 10.; curve = base }) 1.)

let test_shifted_curve () =
  let curve =
    Fault_curve.Shifted { offset = 100.; curve = Fault_curve.Exponential { rate = 0.01 } }
  in
  check_float "before install" 0. (Fault_curve.eval curve 50.);
  check_float ~eps:1e-12 "age restarts"
    (Fault_curve.eval (Fault_curve.Exponential { rate = 0.01 }) 30.)
    (Fault_curve.eval curve 130.)

let test_hazard_exponential_constant () =
  let curve = Fault_curve.Exponential { rate = 3e-5 } in
  check_float "hazard is the rate" 3e-5 (Fault_curve.hazard_rate curve 0.);
  check_float "hazard time-invariant" 3e-5 (Fault_curve.hazard_rate curve 5000.)

let test_hazard_numeric_matches_analytic () =
  (* The generic central-difference path on a Scaled exponential must
     approximate the analytic hazard of the underlying curve. *)
  let rate = 1e-4 in
  let curve = Fault_curve.Scaled { factor = 1.0; curve = Exponential { rate } } in
  let h = Fault_curve.hazard_rate curve 1000. in
  Alcotest.(check bool) "within 1%" true (Float.abs (h -. rate) /. rate < 0.01)

let test_window_probability () =
  let curve = Fault_curve.Exponential { rate = 1e-3 } in
  (* Memorylessness: window probability is independent of the start. *)
  let w1 = Fault_curve.window_probability curve ~start:0. ~duration:100. in
  let w2 = Fault_curve.window_probability curve ~start:5000. ~duration:100. in
  Alcotest.(check bool) "memoryless" true (Float.abs (w1 -. w2) < 1e-9);
  check_float ~eps:1e-12 "value" (1. -. exp (-0.1)) w1;
  (* A dead node fails in every window. *)
  check_float "already failed" 1.
    (Fault_curve.window_probability (Fault_curve.constant 1.) ~start:0. ~duration:1.)

(* --- Node ----------------------------------------------------------- *)

let test_node_byz_split () =
  let node = Node.make ~id:0 ~byz_fraction:0.25 (Fault_curve.constant 0.08) in
  check_float "fault" 0.08 (Node.fault_probability node);
  check_float "byz" 0.02 (Node.byz_probability node);
  check_float "crash" 0.06 (Node.crash_probability node);
  check_float ~eps:1e-12 "split sums" (Node.fault_probability node)
    (Node.byz_probability node +. Node.crash_probability node)

let test_node_validation () =
  Alcotest.check_raises "bad byz fraction"
    (Invalid_argument "Node.make: byz_fraction must be in [0, 1]") (fun () ->
      ignore (Node.make ~id:0 ~byz_fraction:1.5 (Fault_curve.constant 0.1)))

let test_node_default_label () =
  let node = Node.make ~id:3 (Fault_curve.constant 0.1) in
  Alcotest.(check string) "label" "node-3" node.Node.label

(* --- Fleet ----------------------------------------------------------- *)

let test_fleet_uniform () =
  let fleet = Fleet.uniform ~n:5 ~p:0.02 () in
  Alcotest.(check int) "size" 5 (Fleet.size fleet);
  Array.iter (fun p -> check_float "prob" 0.02 p) (Fleet.fault_probs fleet);
  check_float ~eps:1e-12 "expected failures" 0.1
    (Prob.Math_utils.kahan_sum (Fleet.fault_probs fleet))

let test_fleet_mixed_order () =
  let fleet = Fleet.mixed [ (2, 0.08); (3, 0.01) ] in
  Alcotest.(check int) "size" 5 (Fleet.size fleet);
  let probs = Fleet.fault_probs fleet in
  check_float "first group" 0.08 probs.(0);
  check_float "first group end" 0.08 probs.(1);
  check_float "second group" 0.01 probs.(2)

let test_fleet_reindexes () =
  let nodes = [ Node.make ~id:99 (Fault_curve.constant 0.1) ] in
  let fleet = Fleet.of_nodes nodes in
  Alcotest.(check int) "reindexed" 0 (Fleet.node fleet 0).Node.id

let test_fleet_most_reliable () =
  let fleet = Fleet.mixed [ (2, 0.08); (2, 0.01); (1, 0.04) ] in
  Alcotest.(check (list int)) "sorted by reliability" [ 2; 3; 4; 0; 1 ]
    (Fleet.most_reliable fleet)

let test_fleet_empty_raises () =
  Alcotest.check_raises "empty mixed" (Invalid_argument "Fleet.mixed: empty fleet")
    (fun () -> ignore (Fleet.mixed []));
  Alcotest.check_raises "uniform zero"
    (Invalid_argument "Fleet.uniform: n must be positive") (fun () ->
      ignore (Fleet.uniform ~n:0 ~p:0.1 ()))

let test_fleet_byz_probs () =
  let fleet = Fleet.uniform ~byz_fraction:1.0 ~n:3 ~p:0.05 () in
  Array.iter (fun p -> check_float "all byz" 0.05 p) (Fleet.byz_probs fleet);
  Array.iter (fun p -> check_float "no crash" 0. p) (Fleet.crash_probs fleet)

(* --- Correlation ------------------------------------------------------ *)

let test_independent_marginal () =
  let fleet = Fleet.uniform ~n:4 ~p:0.3 () in
  check_float "marginal" 0.3 (Correlation.marginal_probability Correlation.Independent fleet 2)

let test_domain_marginal_formula () =
  let fleet = Fleet.uniform ~n:4 ~p:0.1 () in
  let model =
    Correlation.Domains
      [ { members = [ 0; 1 ]; shock_probability = 0.2; conditional_failure = 0.5; byzantine_shock = false } ]
  in
  (* Node 0: survives iff own fault misses (0.9) and shock-kill misses
     (1 - 0.2*0.5 = 0.9): p_fail = 1 - 0.81. *)
  check_float ~eps:1e-12 "covered node" (1. -. 0.81)
    (Correlation.marginal_probability model fleet 0);
  check_float "uncovered node" 0.1 (Correlation.marginal_probability model fleet 3)

let test_domain_sampling_matches_marginal () =
  let fleet = Fleet.uniform ~n:4 ~p:0.1 () in
  let model =
    Correlation.Domains
      [ { members = [ 0; 1 ]; shock_probability = 0.2; conditional_failure = 1.0; byzantine_shock = false } ]
  in
  let rng = Prob.Rng.create 31 in
  let trials = 40_000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    if (Correlation.sample_kinds model fleet rng).(0) <> Correlation.Ok then incr hits
  done;
  let empirical = float_of_int !hits /. float_of_int trials in
  let expected = Correlation.marginal_probability model fleet 0 in
  Alcotest.(check bool) "within 1.5%" true (Float.abs (empirical -. expected) < 0.015)

let test_correlation_positive_under_shock () =
  let fleet = Fleet.uniform ~n:4 ~p:0.05 () in
  let model =
    Correlation.Domains
      [ { members = [ 0; 1 ]; shock_probability = 0.3; conditional_failure = 1.0; byzantine_shock = false } ]
  in
  let rng = Prob.Rng.create 32 in
  let rho = Correlation.pairwise_correlation model fleet rng 0 1 in
  Alcotest.(check bool) "strongly positive" true (rho > 0.5)

let test_correlation_zero_independent () =
  let fleet = Fleet.uniform ~n:4 ~p:0.2 () in
  let rng = Prob.Rng.create 33 in
  let rho = Correlation.pairwise_correlation Correlation.Independent fleet rng 0 1 in
  Alcotest.(check bool) "near zero" true (Float.abs rho < 0.05)

let test_mixture_marginal () =
  let fleet = Fleet.uniform ~n:3 ~p:0.1 () in
  let model = Correlation.Mixture [ (0.5, 1.0); (0.5, 3.0) ] in
  (* Expected marginal: 0.5*0.1 + 0.5*0.3 = 0.2. *)
  check_float ~eps:1e-12 "mixture marginal" 0.2
    (Correlation.marginal_probability model fleet 0);
  let rng = Prob.Rng.create 34 in
  let trials = 40_000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    if (Correlation.sample_kinds model fleet rng).(0) <> Correlation.Ok then incr hits
  done;
  Alcotest.(check bool) "sampling agrees" true
    (Float.abs ((float_of_int !hits /. float_of_int trials) -. 0.2) < 0.015)

(* --- Telemetry --------------------------------------------------------- *)

let test_observe_counts () =
  let rng = Prob.Rng.create 41 in
  let curve = Fault_curve.of_afr 0.5 in
  let obs = Telemetry.observe rng curve ~devices:1000 ~window:hours_per_year in
  Alcotest.(check bool) "some failures" true (obs.Telemetry.failures > 300);
  Alcotest.(check bool) "not all failed" true (obs.Telemetry.failures < 700);
  Alcotest.(check int) "lifetimes recorded" obs.Telemetry.failures
    (Array.length obs.Telemetry.lifetimes);
  Alcotest.(check bool) "exposure bounded" true
    (obs.Telemetry.device_hours <= 1000. *. hours_per_year +. 1e-6)

let test_afr_estimation_accuracy () =
  let rng = Prob.Rng.create 42 in
  let truth = 0.08 in
  let curve = Fault_curve.of_afr truth in
  let obs = Telemetry.observe rng curve ~devices:20_000 ~window:hours_per_year in
  let estimate = Fault_curve.eval (Telemetry.fit_auto obs) hours_per_year in
  Alcotest.(check bool) "estimate within 10% relative" true
    (Float.abs (estimate -. truth) /. truth < 0.1);
  let low, high = Telemetry.afr_confidence obs in
  Alcotest.(check bool) "truth in CI" true (truth >= low && truth <= high)

let test_fit_exponential_censored () =
  (* With a short window most lifetimes are censored; the
     failures/device-hours estimator must stay unbiased. *)
  let rng = Prob.Rng.create 43 in
  let rate = 1e-5 in
  let curve = Fault_curve.Exponential { rate } in
  let obs = Telemetry.observe rng curve ~devices:50_000 ~window:2000. in
  match Telemetry.fit_auto obs with
  | Fault_curve.Exponential { rate = fitted } ->
      Alcotest.(check bool) "rate within 15%" true
        (Float.abs (fitted -. rate) /. rate < 0.15)
  | _ -> Alcotest.fail "expected exponential"

let test_fit_auto_prefers_weibull_when_aging () =
  let rng = Prob.Rng.create 44 in
  let curve = Fault_curve.Weibull { shape = 3.; scale = 4000. } in
  (* Long window: nearly all lifetimes observed, so the shape is
     identifiable. *)
  let obs = Telemetry.observe rng curve ~devices:3000 ~window:30_000. in
  (match Telemetry.fit_auto obs with
  | Fault_curve.Weibull { shape; _ } ->
      Alcotest.(check bool) "shape recovered" true (Float.abs (shape -. 3.) < 0.3)
  | other ->
      Alcotest.failf "expected weibull, got %s" (curve_string other))

let test_fit_auto_prefers_exponential_when_memoryless () =
  let rng = Prob.Rng.create 45 in
  let curve = Fault_curve.Exponential { rate = 1e-3 } in
  let obs = Telemetry.observe rng curve ~devices:3000 ~window:30_000. in
  match Telemetry.fit_auto obs with
  | Fault_curve.Exponential _ -> ()
  | other -> Alcotest.failf "expected exponential, got %s" (curve_string other)

let test_sample_lifetime_constant_curve () =
  let rng = Prob.Rng.create 46 in
  (* A constant curve samples as its memoryless equivalent. *)
  let curve = Fault_curve.constant 0.5 in
  let n = 20_000 in
  let within = ref 0 in
  for _ = 1 to n do
    if Telemetry.sample_lifetime rng curve < hours_per_year then incr within
  done;
  let fraction = float_of_int !within /. float_of_int n in
  Alcotest.(check bool) "one-year failure fraction ~0.5" true
    (Float.abs (fraction -. 0.5) < 0.02)

let test_sample_lifetime_numeric_inversion () =
  let rng = Prob.Rng.create 47 in
  (* A monotone empirical CDF exercises the inverse-transform fallback
     (no closed-form sampler); samples' empirical CDF must match it. *)
  let curve =
    Fault_curve.Empirical [| (0., 0.); (1000., 0.3); (5000., 0.8); (10_000., 1.) |]
  in
  let n = 10_000 in
  List.iter
    (fun probe ->
      let expected = Fault_curve.eval curve probe in
      let within = ref 0 in
      for _ = 1 to n do
        if Telemetry.sample_lifetime rng curve < probe then incr within
      done;
      let fraction = float_of_int !within /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "CDF matches at t=%g" probe)
        true
        (Float.abs (fraction -. expected) < 0.02))
    [ 500.; 1000.; 3000.; 8000. ]

let test_censored_weibull_fit () =
  (* Ground truth wear-out Weibull(3, 20000h) observed for only 8000h:
     ~94% of lifetimes are censored. The censoring-aware fit must
     recover the shape; the naive fit on failures alone is badly biased
     (it only sees the early-failure tail). *)
  let rng = Prob.Rng.create 49 in
  let truth = Fault_curve.Weibull { shape = 3.; scale = 20_000. } in
  let obs = Telemetry.observe rng truth ~devices:20_000 ~window:8_000. in
  Alcotest.(check bool) "mostly censored" true
    (obs.Telemetry.failures < obs.Telemetry.devices / 2);
  (match Telemetry.fit_auto obs with
  | Fault_curve.Weibull { shape; scale } ->
      Alcotest.(check bool)
        (Printf.sprintf "shape %.2f ~ 3" shape)
        true
        (Float.abs (shape -. 3.) < 0.25);
      Alcotest.(check bool)
        (Printf.sprintf "scale %.0f ~ 20000" scale)
        true
        (Float.abs (scale -. 20_000.) /. 20_000. < 0.1)
  | other -> Alcotest.failf "expected weibull, got %s" (curve_string other));
  (* The uncensored fit underestimates the scale dramatically. *)
  let _, scale = Prob.Distribution.weibull_fit_censored ~failures:obs.Telemetry.lifetimes ~censored:[||] in
  Alcotest.(check bool)
    (Printf.sprintf "naive scale %.0f is biased low" scale)
    true (scale < 12_000.)

let test_censored_fit_reduces_to_uncensored () =
  (* Long window (nothing censored): both fits coincide. *)
  let rng = Prob.Rng.create 50 in
  let truth = Fault_curve.Weibull { shape = 2.; scale = 1_000. } in
  let obs = Telemetry.observe rng truth ~devices:5_000 ~window:1e7 in
  Alcotest.(check int) "all failed" obs.Telemetry.devices obs.Telemetry.failures;
  match Telemetry.fit_auto obs with
  | Fault_curve.Weibull a ->
      let shape, scale = Prob.Distribution.weibull_fit_censored ~failures:obs.Telemetry.lifetimes ~censored:[||] in
      check_float ~eps:1e-6 "same shape" shape a.shape;
      check_float ~eps:1e-3 "same scale" scale a.scale
  | other -> Alcotest.failf "expected weibull, got %s" (curve_string other)

(* --- End-to-end telemetry pipeline ------------------------------------- *)

let test_telemetry_to_analysis_pipeline () =
  (* The full loop a production deployment would run: observe device
     telemetry, fit per-class curves, build the fleet from the fitted
     curves, analyze. The analysis on fitted curves must closely match
     the analysis on ground truth. *)
  let rng = Prob.Rng.create 48 in
  let truth_reliable = Fault_curve.of_afr 0.01 in
  let truth_flaky = Fault_curve.of_afr 0.08 in
  let fit truth =
    let obs = Telemetry.observe rng truth ~devices:30_000 ~window:hours_per_year in
    Telemetry.fit_auto obs
  in
  let fitted_reliable = fit truth_reliable and fitted_flaky = fit truth_flaky in
  let fleet_of reliable flaky =
    Faultmodel.Fleet.of_nodes
      (List.init 7 (fun id ->
           Faultmodel.Node.make ~id (if id < 4 then flaky else reliable)))
  in
  let analyze fleet =
    (Probcons.Analysis.run
       (Probcons.Raft_model.protocol (Probcons.Raft_model.default 7))
       fleet).Probcons.Analysis.p_safe_live
  in
  let on_truth = analyze (fleet_of truth_reliable truth_flaky) in
  let on_fitted = analyze (fleet_of fitted_reliable fitted_flaky) in
  (* 30k device-years pin the AFR tightly; the resulting nines agree to
     ~the third significant digit of the failure probability. *)
  Alcotest.(check bool)
    (Printf.sprintf "fitted %.6f vs truth %.6f" on_fitted on_truth)
    true
    (Float.abs (on_fitted -. on_truth) < 0.1 *. (1. -. on_truth))

let suite =
  [
    Alcotest.test_case "constant clamp" `Quick test_constant_clamp;
    Alcotest.test_case "exponential curve" `Quick test_exponential_curve;
    Alcotest.test_case "afr roundtrip" `Quick test_afr_roundtrip;
    Alcotest.test_case "bathtub piecewise" `Quick test_bathtub_piecewise;
    Alcotest.test_case "empirical interpolation" `Quick test_empirical_interpolation;
    Alcotest.test_case "empirical degenerate" `Quick test_empirical_empty_and_degenerate;
    Alcotest.test_case "scaled curve" `Quick test_scaled_curve;
    Alcotest.test_case "shifted curve" `Quick test_shifted_curve;
    Alcotest.test_case "hazard exponential" `Quick test_hazard_exponential_constant;
    Alcotest.test_case "hazard numeric fallback" `Quick test_hazard_numeric_matches_analytic;
    Alcotest.test_case "window probability" `Quick test_window_probability;
    Alcotest.test_case "node byz split" `Quick test_node_byz_split;
    Alcotest.test_case "node validation" `Quick test_node_validation;
    Alcotest.test_case "node default label" `Quick test_node_default_label;
    Alcotest.test_case "fleet uniform" `Quick test_fleet_uniform;
    Alcotest.test_case "fleet mixed order" `Quick test_fleet_mixed_order;
    Alcotest.test_case "fleet reindexes" `Quick test_fleet_reindexes;
    Alcotest.test_case "fleet most reliable" `Quick test_fleet_most_reliable;
    Alcotest.test_case "fleet validation" `Quick test_fleet_empty_raises;
    Alcotest.test_case "fleet byz probs" `Quick test_fleet_byz_probs;
    Alcotest.test_case "independent marginal" `Quick test_independent_marginal;
    Alcotest.test_case "domain marginal formula" `Quick test_domain_marginal_formula;
    Alcotest.test_case "domain sampling vs marginal" `Slow test_domain_sampling_matches_marginal;
    Alcotest.test_case "correlation positive under shock" `Slow
      test_correlation_positive_under_shock;
    Alcotest.test_case "correlation zero independent" `Slow test_correlation_zero_independent;
    Alcotest.test_case "mixture marginal" `Slow test_mixture_marginal;
    Alcotest.test_case "telemetry observe" `Quick test_observe_counts;
    Alcotest.test_case "afr estimation" `Slow test_afr_estimation_accuracy;
    Alcotest.test_case "censored exponential fit" `Slow test_fit_exponential_censored;
    Alcotest.test_case "fit_auto weibull" `Slow test_fit_auto_prefers_weibull_when_aging;
    Alcotest.test_case "fit_auto exponential" `Slow test_fit_auto_prefers_exponential_when_memoryless;
    Alcotest.test_case "sample constant lifetime" `Slow test_sample_lifetime_constant_curve;
    Alcotest.test_case "sample via inversion" `Slow test_sample_lifetime_numeric_inversion;
    Alcotest.test_case "censored weibull fit" `Slow test_censored_weibull_fit;
    Alcotest.test_case "censored fit reduces to uncensored" `Slow
      test_censored_fit_reduces_to_uncensored;
    Alcotest.test_case "telemetry-to-analysis pipeline" `Slow
      test_telemetry_to_analysis_pipeline;
  ]
