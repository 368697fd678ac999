(* Tests for the cost model and deployment optimizer. *)

open Costmodel

let test_catalog_sane () =
  let catalog = Machine.default_catalog in
  Alcotest.(check int) "four classes" 4 (List.length catalog);
  List.iter
    (fun m ->
      Alcotest.(check bool) "positive cost" true (m.Machine.hourly_cost > 0.);
      Alcotest.(check bool) "probability valid" true
        (m.Machine.fault_probability > 0. && m.Machine.fault_probability < 1.))
    catalog;
  (* The E3 arithmetic depends on spot being 10x cheaper than premium. *)
  let premium = List.hd catalog in
  let spot = List.nth catalog 3 in
  Alcotest.(check (float 1e-9)) "10x price gap" 10.
    (premium.Machine.hourly_cost /. spot.Machine.hourly_cost)

let test_fleet_construction () =
  let spot = List.nth Machine.default_catalog 3 in
  let fleet = Faultmodel.Fleet.uniform ~n:9 ~p:spot.Machine.fault_probability () in
  Alcotest.(check int) "size" 9 (Faultmodel.Fleet.size fleet);
  Alcotest.(check (float 1e-12)) "probability" spot.Machine.fault_probability
    (Faultmodel.Fleet.fault_probs fleet).(0)

let test_cost_accounting () =
  let premium = List.hd Machine.default_catalog in
  Alcotest.(check (float 1e-9)) "hourly" 1.5 (Machine.cluster_hourly_cost premium 3);
  Alcotest.(check bool) "carbon scales" true
    (Machine.cluster_annual_carbon premium 6 > Machine.cluster_annual_carbon premium 3)

let test_min_cluster_meets_target () =
  List.iter
    (fun machine ->
      match Optimizer.min_cluster machine ~target:0.999 () with
      | Some d ->
          Alcotest.(check bool) "meets target" true (d.Optimizer.reliability >= 0.999);
          Alcotest.(check bool) "odd size" true (d.Optimizer.n mod 2 = 1);
          (* Minimality: two fewer nodes must miss the target. *)
          if d.Optimizer.n > 1 then begin
            let smaller =
              Probcons.Raft_model.safe_and_live_uniform ~n:(d.Optimizer.n - 2)
                ~p:machine.Machine.fault_probability
            in
            Alcotest.(check bool) "minimal" true (smaller < 0.999)
          end
      | None -> Alcotest.fail "999 must be reachable")
    Machine.default_catalog

let test_optimize_picks_cheapest_feasible () =
  match Optimizer.optimize ~target:0.999 () with
  | Some best ->
      List.iter
        (fun machine ->
          match Optimizer.min_cluster machine ~target:0.999 () with
          | Some d ->
              Alcotest.(check bool) "no cheaper feasible deployment" true
                (best.Optimizer.hourly_cost <= d.Optimizer.hourly_cost +. 1e-9)
          | None -> ())
        Machine.default_catalog
  | None -> Alcotest.fail "optimization must succeed"

let test_e3_savings_band () =
  (* Spot vs premium at the 99.97% target: the paper promises ~3x.
     With integral cluster sizes the realized ratio is 2-3x. *)
  let premium = List.hd Machine.default_catalog in
  let baseline =
    match Optimizer.min_cluster premium ~target:0.9997 () with
    | Some d -> d
    | None -> Alcotest.fail "baseline"
  in
  match Optimizer.optimize ~target:0.9997 () with
  | Some best ->
      let savings = Optimizer.savings_vs ~baseline best in
      Alcotest.(check bool) "savings in [2, 3.5]" true (savings >= 2. && savings <= 3.5)
  | None -> Alcotest.fail "optimize"

let test_carbon_objective_differs () =
  (* Old hardware has lower embodied carbon but spot has the lower
     price: the two objectives must be able to disagree. *)
  let by_cost = Optimizer.optimize ~objective:Optimizer.Cost ~target:0.9997 () in
  let by_carbon = Optimizer.optimize ~objective:Optimizer.Carbon ~target:0.9997 () in
  match (by_cost, by_carbon) with
  | Some c, Some k ->
      Alcotest.(check bool) "different machines" true
        (c.Optimizer.machine.Machine.name <> k.Optimizer.machine.Machine.name)
  | _ -> Alcotest.fail "both objectives must be satisfiable"

let test_unreachable_target () =
  (* A class that fails more often than not only gets worse with size. *)
  let flaky = { (List.nth Machine.default_catalog 3) with Machine.fault_probability = 0.6 } in
  Alcotest.(check bool) "2 nines out of reach" true
    (Optimizer.min_cluster flaky ~target:0.99 () = None)

let test_deployment_reliability_consistent_with_analysis () =
  (* The optimizer's quoted reliability must equal a direct analysis of
     the same fleet. *)
  let spot = List.nth Machine.default_catalog 3 in
  match Optimizer.min_cluster spot ~target:0.999 () with
  | Some d ->
      let fleet =
        Faultmodel.Fleet.uniform ~n:d.Optimizer.n ~p:spot.Machine.fault_probability ()
      in
      let direct =
        Probcons.Analysis.run
          (Probcons.Raft_model.protocol (Probcons.Raft_model.default d.Optimizer.n))
          fleet
      in
      Alcotest.(check (float 1e-12)) "consistent"
        direct.Probcons.Analysis.p_safe_live d.Optimizer.reliability
  | None -> Alcotest.fail "deployment must exist"

let test_savings_ratio_arithmetic () =
  let premium = List.hd Machine.default_catalog in
  let spot = List.nth Machine.default_catalog 3 in
  let b = Option.get (Optimizer.min_cluster premium ~target:0.99 ()) in
  let d = Option.get (Optimizer.min_cluster spot ~target:0.99 ()) in
  Alcotest.(check (float 1e-9)) "ratio is cost quotient"
    (b.Optimizer.hourly_cost /. d.Optimizer.hourly_cost)
    (Optimizer.savings_vs ~baseline:b d)

let suite =
  [
    Alcotest.test_case "catalog sane" `Quick test_catalog_sane;
    Alcotest.test_case "reliability consistent with analysis" `Quick
      test_deployment_reliability_consistent_with_analysis;
    Alcotest.test_case "savings arithmetic" `Quick test_savings_ratio_arithmetic;
    Alcotest.test_case "fleet construction" `Quick test_fleet_construction;
    Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
    Alcotest.test_case "min cluster meets target" `Quick test_min_cluster_meets_target;
    Alcotest.test_case "optimize picks cheapest" `Quick test_optimize_picks_cheapest_feasible;
    Alcotest.test_case "E3 savings band" `Quick test_e3_savings_band;
    Alcotest.test_case "carbon objective differs" `Quick test_carbon_objective_differs;
    Alcotest.test_case "unreachable target" `Quick test_unreachable_target;
  ]
