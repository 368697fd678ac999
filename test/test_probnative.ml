(* Tests for the probability-native components: dynamic quorum sizing,
   committee sampling, leader reputation, the phi-accrual failure
   detector, and preemptive reconfiguration. *)

open Probnative
module Committee = Probcons.Committee
module Dynamic_quorum = Probcons.Dynamic_quorum

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* A structurally safe Raft is safe with every node correct. *)
let structurally_safe (p : Probcons.Raft_model.params) =
  (Probcons.Raft_model.protocol p).Probcons.Protocol.safe.Probcons.Protocol.full
    (Array.make p.Probcons.Raft_model.n Probcons.Config.Correct)

(* --- Dynamic quorums -------------------------------------------------------- *)

let test_raft_sizings_all_structurally_safe () =
  let fleet = Faultmodel.Fleet.uniform ~n:7 ~p:0.05 () in
  let sizings = Dynamic_quorum.raft_sizings fleet in
  Alcotest.(check int) "one per q_vc choice" 4 (List.length sizings);
  List.iter
    (fun (c : Dynamic_quorum.raft_choice) ->
      Alcotest.(check bool) "structurally safe" true
        (structurally_safe c.params);
      Alcotest.(check bool) "probability sane" true (c.p_live >= 0. && c.p_live <= 1.))
    sizings;
  (* Sorted by ascending q_per; liveness grows with symmetric quorums. *)
  match sizings with
  | first :: _ ->
      Alcotest.(check int) "cheapest commit first" 1
        first.Dynamic_quorum.params.Probcons.Raft_model.q_per
  | [] -> Alcotest.fail "no sizings"

let test_best_raft_picks_cheapest_meeting_target () =
  let fleet = Faultmodel.Fleet.uniform ~n:9 ~p:0.02 () in
  (match Dynamic_quorum.best_raft ~target_live:0.999 fleet with
  | Some c ->
      Alcotest.(check bool) "meets target" true (c.Dynamic_quorum.p_live >= 0.999);
      (* Any cheaper commit quorum must miss the target. *)
      List.iter
        (fun (other : Dynamic_quorum.raft_choice) ->
          if
            other.params.Probcons.Raft_model.q_per
            < c.Dynamic_quorum.params.Probcons.Raft_model.q_per
          then Alcotest.(check bool) "cheaper misses" true (other.p_live < 0.999))
        (Dynamic_quorum.raft_sizings fleet)
  | None -> Alcotest.fail "target reachable");
  (* An impossible target yields None. *)
  Alcotest.(check bool) "impossible target" true
    (Dynamic_quorum.best_raft ~target_live:(Prob.Nines.to_prob 12.)
       (Faultmodel.Fleet.uniform ~n:3 ~p:0.2 ())
    = None)

(* --- Committee --------------------------------------------------------------- *)

let test_ranked_committee_prefix_of_most_reliable () =
  let fleet = Faultmodel.Fleet.mixed [ (3, 0.10); (3, 0.01) ] in
  match Committee.reliability_ranked ~target:0.999 fleet with
  | Some c ->
      (* Must pick among the reliable nodes 3,4,5 first. *)
      Alcotest.(check (list int)) "most reliable prefix" [ 3; 4; 5 ]
        (List.sort compare c.Committee.members);
      Alcotest.(check bool) "meets target" true (c.Committee.p_safe_live >= 0.999)
  | None -> Alcotest.fail "committee must exist"

let test_ranked_committee_grows_with_target () =
  let fleet = Faultmodel.Fleet.uniform ~n:21 ~p:0.05 () in
  let size target =
    match Committee.reliability_ranked ~target fleet with
    | Some c -> List.length c.Committee.members
    | None -> max_int
  in
  Alcotest.(check bool) "more nines, more members" true (size 0.999 <= size 0.99999);
  Alcotest.(check bool) "odd sizes" true (size 0.999 mod 2 = 1)

let test_random_committee_properties () =
  let fleet = Faultmodel.Fleet.uniform ~n:20 ~p:0.03 () in
  let rng = Prob.Rng.create 81 in
  let c = Committee.random_committee rng ~size:7 fleet in
  Alcotest.(check int) "size" 7 (List.length c.Committee.members);
  Alcotest.(check int) "distinct" 7
    (List.length (List.sort_uniq compare c.Committee.members));
  (* Uniform fleet: any 7-committee has the closed-form reliability. *)
  check_float ~eps:1e-12 "uniform reliability"
    (Probcons.Raft_model.safe_and_live_uniform ~n:7 ~p:0.03)
    c.Committee.p_safe_live

let test_diversified_committee_respects_domains () =
  (* 6 ultra-reliable nodes all on platform A, 3 good nodes elsewhere:
     capping platform A at 2 forces the committee to mix. *)
  let fleet = Faultmodel.Fleet.mixed [ (6, 0.001); (3, 0.01) ] in
  let domains = [ [ 0; 1; 2; 3; 4; 5 ] ] in
  (match Committee.diversified_ranked ~target:0.999 ~domains ~max_per_domain:2 fleet with
  | Some c ->
      let in_domain =
        List.length (List.filter (fun u -> u < 6) c.Committee.members)
      in
      Alcotest.(check bool) "cap respected" true (in_domain <= 2);
      Alcotest.(check bool) "meets target" true (c.Committee.p_safe_live >= 0.999)
  | None -> Alcotest.fail "diversified committee must exist");
  (* Without the cap the ranked committee would be all-platform-A. *)
  (match Committee.reliability_ranked ~target:0.999 fleet with
  | Some c ->
      Alcotest.(check bool) "unconstrained prefers the monoculture" true
        (List.for_all (fun u -> u < 6) c.Committee.members)
  | None -> Alcotest.fail "ranked committee must exist");
  (* Impossible caps yield None rather than a violating committee. *)
  Alcotest.(check bool) "unreachable target" true
    (Committee.diversified_ranked ~target:(Prob.Nines.to_prob 9.) ~domains
       ~max_per_domain:1 fleet
    = None)

let test_random_committee_size_at_least_ranked () =
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.005); (10, 0.02); (6, 0.08) ] in
  let target = 0.9999 in
  let rng = Prob.Rng.create 82 in
  match
    ( Committee.reliability_ranked ~target fleet,
      Committee.random_committee_size rng ~target fleet )
  with
  | Some ranked, Some random_size ->
      Alcotest.(check bool) "random needs at least as many" true
        (random_size >= List.length ranked.Committee.members)
  | _ -> Alcotest.fail "both must exist"

(* --- Leader reputation --------------------------------------------------------- *)

let test_timeout_multipliers_ordering () =
  let fleet = Faultmodel.Fleet.mixed [ (2, 0.08); (2, 0.01) ] in
  let m = Leader_reputation.timeout_multipliers ~spread:2. fleet in
  (* Most reliable node (id 2 or 3) gets multiplier 1. *)
  check_float "most reliable" 1. (Array.fold_left Float.min infinity m);
  check_float "least reliable" 3. (Array.fold_left Float.max 0. m);
  Alcotest.(check bool) "reliable beat flaky" true (m.(2) < m.(0) && m.(3) < m.(1));
  Alcotest.check_raises "negative spread"
    (Invalid_argument "Leader_reputation.timeout_multipliers: negative spread")
    (fun () -> ignore (Leader_reputation.timeout_multipliers ~spread:(-1.) fleet))

let test_leader_fault_probability_strategies () =
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.08); (3, 0.01) ] in
  let uniform = Leader_reputation.leader_fault_probability fleet ~strategy:`Uniform in
  let reputation = Leader_reputation.leader_fault_probability fleet ~strategy:`Reputation in
  check_float ~eps:1e-12 "uniform = fleet mean" (((4. *. 0.08) +. (3. *. 0.01)) /. 7.) uniform;
  check_float ~eps:1e-12 "reputation = fleet min" 0.01 reputation;
  Alcotest.(check bool) "reputation wins" true (reputation < uniform)

let test_expected_reelections_ranking () =
  let fleet =
    Faultmodel.Fleet.of_nodes
      [
        Faultmodel.Node.make ~id:0 (Faultmodel.Fault_curve.Exponential { rate = 1e-4 });
        Faultmodel.Node.make ~id:1 (Faultmodel.Fault_curve.Exponential { rate = 1e-5 });
      ]
  in
  let uniform =
    Leader_reputation.expected_reelections fleet ~strategy:`Uniform ~horizon:10_000.
  in
  let reputation =
    Leader_reputation.expected_reelections fleet ~strategy:`Reputation ~horizon:10_000.
  in
  Alcotest.(check bool) "fewer re-elections with reputation" true (reputation < uniform);
  (* Exponential hazards are constant, so the integral is closed-form. *)
  check_float ~eps:1e-6 "reputation closed form" 0.1 reputation;
  check_float ~eps:1e-6 "uniform closed form" ((1e-4 +. 1e-5) /. 2. *. 10_000.) uniform

(* --- Failure detector --------------------------------------------------------------- *)

let test_phi_zero_after_heartbeat () =
  let fd = Failure_detector.create () in
  for i = 0 to 10 do
    Failure_detector.heartbeat fd ~now:(float_of_int i *. 100.)
  done;
  check_float "phi right after beat" 0. (Failure_detector.phi fd ~now:1000.);
  Alcotest.(check bool) "phi within mean" true (Failure_detector.phi fd ~now:1050. = 0.)

let test_phi_grows_with_silence () =
  let fd = Failure_detector.create () in
  for i = 0 to 20 do
    Failure_detector.heartbeat fd ~now:(float_of_int i *. 100.)
  done;
  let p1 = Failure_detector.phi fd ~now:2300. in
  let p2 = Failure_detector.phi fd ~now:2600. in
  let p3 = Failure_detector.phi fd ~now:4000. in
  Alcotest.(check bool) "monotone growth" true (p1 < p2 && p2 < p3);
  Alcotest.(check bool) "not suspect early" false
    (Failure_detector.suspect fd ~now:2210.);
  Alcotest.(check bool) "suspect after long silence" true
    (Failure_detector.suspect fd ~now:10_000.)

let test_phi_tolerates_jitter () =
  (* Irregular heartbeats widen the deviation, so the same silence
     yields a lower phi than under a metronome. *)
  let regular = Failure_detector.create () in
  let jittery = Failure_detector.create () in
  let rng = Prob.Rng.create 91 in
  let time_r = ref 0. and time_j = ref 0. in
  for _ = 1 to 50 do
    time_r := !time_r +. 100.;
    Failure_detector.heartbeat regular ~now:!time_r;
    time_j := !time_j +. 50. +. (Prob.Rng.float rng *. 100.);
    Failure_detector.heartbeat jittery ~now:!time_j
  done;
  let phi_r = Failure_detector.phi regular ~now:(!time_r +. 400.) in
  let phi_j = Failure_detector.phi jittery ~now:(!time_j +. 400.) in
  Alcotest.(check bool) "jitter lowers suspicion" true (phi_j < phi_r)

let test_detector_bookkeeping () =
  let fd = Failure_detector.create () in
  check_float "no history, no suspicion" 0. (Failure_detector.phi fd ~now:1e6);
  (* 128 slow beats, then 129 fast ones: the 128-interval window
     forgets the slow ones, so 20 s of silence after a 10 s rhythm is
     suspect. With the slow intervals still in the mean (~55 s) it
     would not be. *)
  let now = ref 0. in
  for _ = 1 to 128 do
    now := !now +. 100.;
    Failure_detector.heartbeat fd ~now:!now
  done;
  for _ = 1 to 129 do
    now := !now +. 10.;
    Failure_detector.heartbeat fd ~now:!now
  done;
  Alcotest.(check bool) "window bounds history" true
    (Failure_detector.phi fd ~now:(!now +. 20.) > 0.);
  Alcotest.check_raises "time backwards"
    (Invalid_argument "Failure_detector.heartbeat: time went backwards") (fun () ->
      Failure_detector.heartbeat fd ~now:0.)

(* --- Preemptive reconfiguration --------------------------------------------------------- *)

let test_window_liveness_basics () =
  (* Exponential nodes with a 1% one-year AFR: the one-year window from
     t=0 must match the closed-form majority computation. (A Constant
     curve would have zero *conditional* window risk by construction.) *)
  let curve = Faultmodel.Fault_curve.of_afr 0.01 in
  let fleet =
    Faultmodel.Fleet.of_nodes (List.init 5 (fun id -> Faultmodel.Node.make ~id curve))
  in
  let live =
    Preemptive_reconfig.window_liveness fleet ~quorum:3 ~start:0. ~duration:8766.
  in
  Alcotest.(check bool) "in unit interval" true (live >= 0. && live <= 1.);
  Alcotest.(check bool) "close to closed form" true
    (Float.abs (live -. Probcons.Raft_model.safe_and_live_uniform ~n:5 ~p:0.01) < 1e-9);
  (* And a Constant fleet indeed reports zero conditional window risk. *)
  let const_fleet = Faultmodel.Fleet.uniform ~n:5 ~p:0.01 () in
  Alcotest.(check (float 1e-12)) "constant curve has no window risk" 1.
    (Preemptive_reconfig.window_liveness const_fleet ~quorum:3 ~start:0. ~duration:8766.)

let test_decide_swap_rule () =
  let risks = [| 0.3; 0.05; 0.05; 0.05; 0.2 |] in
  let original = Array.copy risks in
  (* Five nodes, majority quorum: liveness = P(failures <= 2). *)
  let tolerated = 2 in
  let untouched label decision =
    Alcotest.(check bool) (label ^ ": no swap") true (decision = None);
    Alcotest.(check (array (float 0.))) (label ^ ": input untouched") original risks
  in
  let live = Prob.Poisson_binomial.cdf_le risks tolerated in
  untouched "target met"
    (Preemptive_reconfig.decide risks ~tolerated ~target_live:live ~victim:0
       ~replacement:0.01);
  untouched "replacement as risky"
    (Preemptive_reconfig.decide risks ~tolerated ~target_live:0.9999 ~victim:0
       ~replacement:0.3);
  untouched "replacement riskier"
    (Preemptive_reconfig.decide risks ~tolerated ~target_live:0.9999 ~victim:1
       ~replacement:0.2);
  match
    Preemptive_reconfig.decide risks ~tolerated ~target_live:0.9999
      ~victim:(Option.get (Preemptive_reconfig.riskiest risks))
      ~replacement:0.01
  with
  | None -> Alcotest.fail "a safer replacement below target must swap"
  | Some d ->
      Alcotest.(check int) "victim is the riskiest" 0 d.Preemptive_reconfig.victim;
      Alcotest.(check (float 0.)) "victim risk" 0.3 d.Preemptive_reconfig.risk;
      Alcotest.(check (float 0.)) "live before" live d.Preemptive_reconfig.live_before;
      Alcotest.(check bool) "swap strictly raises liveness" true
        (d.Preemptive_reconfig.live_after > live);
      Alcotest.(check (array (float 0.))) "the caller applies the swap" original risks;
      let swapped = Array.copy risks in
      swapped.(0) <- 0.01;
      Alcotest.(check (float 0.)) "predicted liveness is the swapped fleet's"
        (Prob.Poisson_binomial.cdf_le swapped tolerated)
        d.Preemptive_reconfig.live_after

let test_decide_reverts_useless_swap () =
  (* Three certain failures already exceed the two tolerated: no swap
     of a fourth node can restore liveness, and the input is left as
     it was. *)
  let risks = [| 1.; 1.; 1.; 0.5; 0.5 |] in
  Alcotest.(check bool) "no swap" true
    (Preemptive_reconfig.decide risks ~tolerated:2 ~target_live:0.9 ~victim:3
       ~replacement:0.1
    = None);
  Alcotest.(check (array (float 0.))) "input untouched" [| 1.; 1.; 1.; 0.5; 0.5 |] risks

let test_riskiest () =
  Alcotest.(check (option int)) "first maximum" (Some 1)
    (Preemptive_reconfig.riskiest [| 0.1; 0.4; 0.4; 0.2 |]);
  Alcotest.(check (option int)) "eligible only" (Some 3)
    (Preemptive_reconfig.riskiest ~eligible:(fun i -> i <> 1 && i <> 2)
       [| 0.1; 0.4; 0.4; 0.2 |]);
  Alcotest.(check (option int)) "nothing eligible" None
    (Preemptive_reconfig.riskiest ~eligible:(fun _ -> false) [| 0.1; 0.4 |]);
  Alcotest.(check (option int)) "empty" None (Preemptive_reconfig.riskiest [||])

(* --- Planner ----------------------------------------------------------------- *)

let planner_fleet = Faultmodel.Fleet.mixed [ (3, 0.001); (8, 0.02); (5, 0.10) ]

let test_planner_produces_consistent_plan () =
  match Planner.plan ~target:0.9999 planner_fleet with
  | Some plan ->
      (* Committee: most reliable nodes first (ids 0-2 are the premium
         ones). *)
      let sorted = List.sort compare plan.Planner.committee in
      Alcotest.(check bool) "premium nodes included" true
        (List.for_all (fun u -> List.mem u sorted) [ 0; 1; 2 ]
        || List.length plan.Planner.committee < 3);
      (* Quorums structurally safe over the committee. *)
      Alcotest.(check bool) "structurally safe" true
        (structurally_safe plan.Planner.quorums);
      Alcotest.(check int) "quorums sized to committee"
        (List.length plan.Planner.committee)
        plan.Planner.quorums.Probcons.Raft_model.n;
      (* Guarantee meets the target. *)
      Alcotest.(check bool) "meets target" true (plan.Planner.p_live >= 0.9999);
      Alcotest.(check int) "one multiplier per member"
        (List.length plan.Planner.committee)
        (Array.length plan.Planner.timeout_multipliers)
  | None -> Alcotest.fail "plan must exist"

let test_planner_unattainable_target () =
  let junk = Faultmodel.Fleet.uniform ~n:3 ~p:0.4 () in
  Alcotest.(check bool) "no plan" true
    (Planner.plan ~target:(Prob.Nines.to_prob 9.) junk = None)

let test_planner_execution_healthy () =
  match Planner.plan ~target:0.9999 planner_fleet with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      let ok = ref 0 and preferred = ref 0 in
      for seed = 1 to 10 do
        let e = Planner.execute ~seed planner_fleet plan in
        if e.Planner.safe && e.Planner.live then incr ok;
        if e.Planner.leader_was_most_reliable then incr preferred
      done;
      Alcotest.(check int) "all runs safe and live" 10 !ok;
      Alcotest.(check bool)
        (Printf.sprintf "preferred leader won %d/10" !preferred)
        true (!preferred >= 6)

let test_planner_execution_with_crash () =
  match Planner.plan ~target:0.9999 planner_fleet with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      (* Crash the most reliable member (position 0): the plan must
         still be safe, and live if the committee tolerates one
         crash. *)
      let n = List.length plan.Planner.committee in
      let tolerates =
        n - max plan.Planner.quorums.Probcons.Raft_model.q_per
              plan.Planner.quorums.Probcons.Raft_model.q_vc
        >= 1
      in
      let e = Planner.execute ~seed:3 ~crash:[ 0 ] planner_fleet plan in
      Alcotest.(check bool) "safe under crash" true e.Planner.safe;
      if tolerates then Alcotest.(check bool) "live under crash" true e.Planner.live

(* --- Reconfiguration executor ---------------------------------------------------- *)

let wearout_universe =
  let aging = Faultmodel.Fault_curve.Weibull { shape = 4.; scale = 15_000. } in
  let fresh = Faultmodel.Fault_curve.Weibull { shape = 4.; scale = 80_000. } in
  Faultmodel.Fleet.of_nodes
    (List.init 7 (fun id -> Faultmodel.Node.make ~id (if id < 3 then aging else fresh)))

let test_reconfig_executor_beats_neglect () =
  (* Members wear out within the mission; the policy must swap them for
     spares in time while the unmanaged control loses its quorum. *)
  let managed = ref 0 and unmanaged = ref 0 and swaps = ref 0 in
  for seed = 1 to 5 do
    let m =
      Reconfig_executor.run ~seed ~universe:wearout_universe ~initial_members:[ 0; 1; 2 ]
        ~target_live:0.999 ~review_interval:1000. ~horizon:30_000. ~commands:15 ()
    in
    let u =
      Reconfig_executor.run_unmanaged ~seed ~universe:wearout_universe
        ~initial_members:[ 0; 1; 2 ] ~horizon:30_000. ~commands:15 ()
    in
    if m.Reconfig_executor.managed_live then incr managed;
    if u.Reconfig_executor.managed_live then incr unmanaged;
    swaps := !swaps + m.Reconfig_executor.swaps_completed
  done;
  Alcotest.(check int) "managed survives all missions" 5 !managed;
  Alcotest.(check int) "unmanaged loses every mission" 0 !unmanaged;
  Alcotest.(check bool) "swaps actually happened" true (!swaps >= 5)

let test_reconfig_executor_idle_on_healthy_fleet () =
  (* Fresh fleet over a short mission: no swaps needed. *)
  let fresh = Faultmodel.Fleet.of_nodes
      (List.init 5 (fun id ->
           Faultmodel.Node.make ~id (Faultmodel.Fault_curve.Exponential { rate = 1e-9 })))
  in
  let m =
    Reconfig_executor.run ~seed:3 ~universe:fresh ~initial_members:[ 0; 1; 2 ]
      ~target_live:0.999 ~review_interval:1000. ~horizon:10_000. ~commands:10 ()
  in
  Alcotest.(check int) "no swaps" 0 m.Reconfig_executor.swaps_completed;
  Alcotest.(check bool) "live" true m.Reconfig_executor.managed_live;
  Alcotest.(check int) "all commands" 10 m.Reconfig_executor.commands_committed

let test_reconfig_executor_keeps_safer_members () =
  (* Spares that wear out faster than the members: the window misses
     the target, but no spare is less risky than its victim, so no
     swap may happen. Seed 3 is left out: there member 0 dies at
     5,506 h, and swapping a dead member out is correct. *)
  let curve scale = Faultmodel.Fault_curve.Weibull { shape = 4.; scale } in
  let universe =
    Faultmodel.Fleet.of_nodes
      (List.init 6 (fun id ->
           Faultmodel.Node.make ~id (curve (if id < 3 then 15_000. else 9_000.))))
  in
  List.iter
    (fun seed ->
      let m =
        Reconfig_executor.run ~seed ~universe ~initial_members:[ 0; 1; 2 ]
          ~target_live:0.999 ~review_interval:1000. ~horizon:8000. ~commands:10 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no swap to a riskier spare" seed)
        0 m.Reconfig_executor.swaps_completed)
    [ 1; 2; 4; 5 ]

let test_reconfig_executor_validation () =
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Reconfig_executor.run: bad review interval") (fun () ->
      ignore
        (Reconfig_executor.run ~universe:wearout_universe ~initial_members:[ 0; 1; 2 ]
           ~target_live:0.9 ~review_interval:0. ~horizon:1000. ~commands:1 ()))

(* --- Reputation-driven elections in the simulator -------------------------------------- *)

let flap_plan nodes =
  List.concat_map
    (fun node ->
      List.init 5 (fun k ->
          let at = 3000. +. (float_of_int k *. 6000.) +. (float_of_int node *. 700.) in
          (node, Dessim.Fault_injector.Crash_restart { at; back_at = at +. 1200. })))
    nodes

let latency_run ~multipliers ~seed =
  let horizon = 40_000. in
  let cluster =
    Raft_sim.Raft_cluster.create ~n:5 ~seed ?timeout_multipliers:multipliers ()
  in
  Raft_sim.Raft_cluster.inject cluster (flap_plan [ 0; 1; 2; 3 ]);
  let commands = List.init 60 (fun i -> 10_000 + i) in
  let submissions =
    List.mapi (fun i cmd -> (cmd, 2000. +. (float_of_int i *. 500.))) commands
  in
  Raft_sim.Raft_cluster.submit_workload cluster ~commands ~start:2000. ~interval:500.;
  Raft_sim.Raft_cluster.run cluster ~until:horizon;
  Raft_sim.Raft_checker.command_latencies cluster ~submissions ~horizon

let test_reputation_improves_tail_latency () =
  (* Flaky nodes flap; a reputation-weighted election keeps the stable
     node in charge, so the tail of client latency collapses. *)
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.08); (1, 0.002) ] in
  let multipliers = Probnative.Leader_reputation.timeout_multipliers ~spread:4. fleet in
  let gather multipliers =
    let all = ref [] in
    for seed = 1 to 3 do
      all := latency_run ~multipliers ~seed @ !all
    done;
    let a = Array.of_list !all in
    Array.sort compare a;
    a
  in
  let uniform = gather None in
  let reputation = gather (Some multipliers) in
  let p99 a = a.(Array.length a - 1 - (Array.length a / 100)) in
  Alcotest.(check bool)
    (Printf.sprintf "reputation p99 %.0f < uniform p99 %.0f" (p99 reputation) (p99 uniform))
    true
    (p99 reputation < p99 uniform)

let test_reputation_multipliers_bias_elections () =
  (* Feed reputation multipliers into the executable Raft: across
     seeds, the most reliable node (shortest timeouts) must win the
     first election far more often than chance. *)
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.08); (1, 0.005) ] in
  let multipliers = Leader_reputation.timeout_multipliers ~spread:4. fleet in
  let reliable_wins = ref 0 in
  let total = 20 in
  for seed = 1 to total do
    let cluster =
      Raft_sim.Raft_cluster.create ~n:5 ~seed ~timeout_multipliers:multipliers ()
    in
    Raft_sim.Raft_cluster.run cluster ~until:5000.;
    match Raft_sim.Raft_cluster.leader_ids cluster with
    | [ leader ] -> if leader = 4 then incr reliable_wins
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "reliable node led %d/%d" !reliable_wins total)
    true
    (!reliable_wins >= 15)

(* --- Uncertainty-weighted selection ---------------------------------------- *)

let uncertainty_case_gen =
  (* A small mixed fleet plus a per-node uncertainty (confidence-interval
     half-width, 0..1) for each of its nodes. *)
  let open QCheck.Gen in
  let prob = map (fun k -> float_of_int k /. 500.) (int_range 1 60) in
  let* groups = list_size (int_range 1 3) (pair (int_range 2 5) prob) in
  let n = List.fold_left (fun acc (count, _) -> acc + count) 0 groups in
  let* unc =
    list_repeat n (map (fun k -> float_of_int k /. 10.) (int_range 0 10))
  in
  return (groups, Array.of_list unc)

let uncertainty_case_arb =
  QCheck.make
    ~print:(fun (groups, unc) ->
      Printf.sprintf "mix=%s unc=%s"
        (QCheck.Print.(list (pair int float)) groups)
        (QCheck.Print.(array float) unc))
    uncertainty_case_gen

let prop_weighted_committee_zero_is_ranked =
  QCheck.Test.make ~count:100
    ~name:"reliability_weighted with zero uncertainty = reliability_ranked"
    uncertainty_case_arb
    (fun (groups, _) ->
      let fleet = Faultmodel.Fleet.mixed groups in
      let target = 0.99 in
      match
        ( Committee.reliability_ranked ~target fleet,
          Committee.reliability_weighted
            ~uncertainty:(fun _ -> 0.)
            ~target fleet )
      with
      | None, None -> true
      | Some a, Some b -> a.Committee.members = b.Committee.members
      | _ -> false)

let prop_weighted_committee_meets_target =
  QCheck.Test.make ~count:100
    ~name:"reliability_weighted meets target, never undercuts ranked size"
    uncertainty_case_arb
    (fun (groups, unc) ->
      let fleet = Faultmodel.Fleet.mixed groups in
      let target = 0.99 in
      match
        Committee.reliability_weighted
          ~uncertainty:(fun id -> unc.(id))
          ~target fleet
      with
      | None -> true
      | Some c -> (
          c.Committee.p_safe_live >= target
          &&
          (* The unweighted ranking is the optimal order for any k, so
             discounting can only need at least as many members. *)
          match Committee.reliability_ranked ~target fleet with
          | None -> false
          | Some best ->
              List.length c.Committee.members
              >= List.length best.Committee.members))

let prop_weighted_raft_zero_is_best =
  QCheck.Test.make ~count:100
    ~name:"best_raft_weighted with zero uncertainty = best_raft"
    uncertainty_case_arb
    (fun (groups, _) ->
      let fleet = Faultmodel.Fleet.mixed groups in
      let target_live = 0.99 in
      match
        ( Dynamic_quorum.best_raft ~target_live fleet,
          Dynamic_quorum.best_raft_weighted
            ~uncertainty:(fun _ -> 0.)
            ~target_live fleet )
      with
      | None, None -> true
      | Some a, Some b ->
          a.Dynamic_quorum.params = b.Dynamic_quorum.params
          && a.Dynamic_quorum.p_live = b.Dynamic_quorum.p_live
      | _ -> false)

let prop_weighted_raft_attainable_implies_unweighted =
  QCheck.Test.make ~count:100
    ~name:"best_raft_weighted attainable => best_raft attainable"
    uncertainty_case_arb
    (fun (groups, unc) ->
      let fleet = Faultmodel.Fleet.mixed groups in
      let target_live = 0.99 in
      match
        Dynamic_quorum.best_raft_weighted
          ~uncertainty:(fun id -> unc.(id))
          ~target_live fleet
      with
      | None -> true
      | Some c ->
          (* Discounted reliabilities are pessimistic: a target met
             under them is met under the truth. *)
          c.Dynamic_quorum.p_live >= target_live
          && Dynamic_quorum.best_raft ~target_live fleet <> None)

(* --- The weighted selectors as registry protocols ----------------------- *)

let test_weighted_registry_entries () =
  (* Both are entries of the static registry list. *)
  Alcotest.(check bool) "raft-weighted registered" true
    (List.mem "raft-weighted" (Probcons.Registry.names ()));
  Alcotest.(check bool) "committee-weighted registered" true
    (List.mem "committee-weighted" (Probcons.Registry.names ()));
  let s name = Probcons.Scenario.uniform ~protocol:name ~n:5 ~p:0.01 () in
  (match Probcons.Registry.analyze (s "raft-weighted") with
  | Ok r ->
      Alcotest.(check bool) "meets the default 3-nines target" true
        (r.Probcons.Analysis.p_live >= Prob.Nines.to_prob 3.)
  | Error e -> Alcotest.fail e);
  match Probcons.Registry.analyze (s "committee-weighted") with
  | Ok r ->
      Alcotest.(check bool) "committee protocol named" true
        (String.length r.Probcons.Analysis.protocol > 0
        && String.sub r.Probcons.Analysis.protocol 0 9 = "committee");
      Alcotest.(check bool) "meets the default target" true
        (r.Probcons.Analysis.p_live >= Prob.Nines.to_prob 3.)
  | Error e -> Alcotest.fail e

let test_weighted_registry_overrides () =
  (* target_nines is the one quorum override; unknown keys and
     unattainable targets are typed errors, and a scenario file
     carrying the override parses through the normal codec. *)
  let mk ?(quorums = []) ?(target = None) name =
    let quorums =
      match target with Some t -> ("target_nines", t) :: quorums | None -> quorums
    in
    Probcons.Scenario.make ~protocol:name ~mix:[ (5, 0.01) ] ~quorums ()
  in
  let ok = function Ok s -> s | Error e -> Alcotest.fail e in
  (match Probcons.Registry.validate (ok (mk ~target:(Some 2) "raft-weighted")) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Probcons.Registry.validate
       (ok (mk ~quorums:[ ("q_per", 3) ] "raft-weighted"))
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown override key accepted");
  (match
     Probcons.Registry.analyze (ok (mk ~target:(Some 9) "committee-weighted"))
   with
  | Error msg ->
      Alcotest.(check bool) "unattainable target names the protocol" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "9 nines from a p=0.01 fleet of 5 accepted");
  (* Validation checks the target and runs no search: an unattainable
     one validates, and its analysis is the error. *)
  let unmet = ok (mk ~target:(Some 9) "raft-weighted") in
  Alcotest.(check (result unit string)) "unattainable target validates" (Ok ())
    (Probcons.Registry.validate unmet);
  let unmet_msg =
    "no structurally safe Raft sizing of this 5-node fleet meets 9-nines \
     liveness under uncertainty weighting"
  in
  Alcotest.(check (result string string)) "its analysis is the error"
    (Error unmet_msg)
    (Result.map
       (fun r -> r.Probcons.Analysis.protocol)
       (Probcons.Registry.analyze unmet));
  (* The search runs before the horizon is read: with no horizon, the
     trajectory still reports the unmet target. *)
  Alcotest.(check (result int string)) "its trajectory is the same error"
    (Error unmet_msg)
    (Result.map List.length (Probcons.Registry.analyze_horizon unmet));
  (* Round-trip through the scenario JSON codec. *)
  let json =
    Probcons.Scenario.to_json (ok (mk ~target:(Some 4) "committee-weighted"))
  in
  match Probcons.Scenario.of_json json with
  | Ok s ->
      Alcotest.(check (option int)) "override survives the codec" (Some 4)
        (Probcons.Scenario.quorum s "target_nines")
  | Error e -> Alcotest.fail e

let test_weighted_registry_dynamic_uncertainty () =
  (* A Markov-process fleet with [at] set gives the selectors a real
     uncertainty signal: the spread of the marginal over the mission
     window. The committee choice under uncertainty can only be more
     conservative (never smaller) than the static-marginal choice. *)
  let process =
    match
      Faultmodel.Failure_process.markov ~fail_rate:0.2 ~recover_rate:1.5
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let scenario =
    match
      Probcons.Scenario.make ~protocol:"committee-weighted"
        ~mix:[ (7, 0.05) ]
        ~processes:(List.init 7 (fun _ -> process))
        ~quorums:[ ("target_nines", 2) ]
        ~at:2.0 ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Probcons.Registry.analyze scenario with
  | Ok r ->
      Alcotest.(check bool) "dynamic analysis meets 2 nines" true
        (r.Probcons.Analysis.p_live >= Prob.Nines.to_prob 2.)
  | Error e -> Alcotest.fail e

let test_weighted_validation () =
  let fleet = Faultmodel.Fleet.uniform ~n:5 ~p:0.02 () in
  Alcotest.check_raises "committee negative uncertainty"
    (Invalid_argument "Committee.reliability_weighted: bad uncertainty")
    (fun () ->
      ignore
        (Committee.reliability_weighted
           ~uncertainty:(fun _ -> -0.5)
           ~target:0.99 fleet));
  Alcotest.check_raises "raft nan uncertainty"
    (Invalid_argument "Dynamic_quorum.best_raft_weighted: bad uncertainty")
    (fun () ->
      ignore
        (Dynamic_quorum.best_raft_weighted
           ~uncertainty:(fun _ -> Float.nan)
           ~target_live:0.99 fleet))

let test_weighted_prefers_trusted_node () =
  (* Node 0 is nominally the most reliable but its estimate has a wide
     confidence interval; the weighted selection passes it over for a
     slightly worse, well-measured node. *)
  let fleet = Faultmodel.Fleet.mixed [ (1, 0.010); (4, 0.012) ] in
  let unc = [| 0.9; 0.; 0.; 0.; 0. |] in
  let members = function
    | None -> Alcotest.fail "target attainable"
    | Some c -> c.Committee.members
  in
  Alcotest.(check (list int)) "unweighted takes node 0" [ 0 ]
    (members (Committee.reliability_ranked ~target:0.9 fleet));
  Alcotest.(check (list int)) "weighted passes it over" [ 1 ]
    (members
       (Committee.reliability_weighted
          ~uncertainty:(fun id -> unc.(id))
          ~target:0.9 fleet))

(* The weighted entries' payloads, byte for byte, on a static fleet
   and on the Markov fleet with [at] above, whatever PROBCONS_DOMAINS
   says. *)
let test_weighted_registry_payload_bytes () =
  let process =
    match Faultmodel.Failure_process.markov ~fail_rate:0.2 ~recover_rate:1.5 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let markov name =
    match
      Probcons.Scenario.make ~protocol:name ~mix:[ (7, 0.05) ]
        ~processes:(List.init 7 (fun _ -> process))
        ~quorums:[ ("target_nines", 2) ]
        ~at:2.0 ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let static name = Probcons.Scenario.uniform ~protocol:name ~n:5 ~p:0.01 () in
  let bytes s = Result.map Obs.Json.to_string (Probcons.Registry.analyze_json s) in
  List.iter
    (fun (label, s, want) ->
      Alcotest.(check (result string string)) label want (bytes s))
    [
      ( "raft-weighted, static",
        static "raft-weighted",
        Ok
          {|{"protocol": "raft(n=5,qper=2,qvc=4)", "n": 5, "engine": "count-dp", "p_safe": 1, "p_live": 0.99901985039999996, "p_safe_live": 0.99901985039999996, "nines": 3.0087076329850122}|}
      );
      ( "raft-weighted, markov at 2",
        markov "raft-weighted",
        Error
          "no structurally safe Raft sizing of this 7-node fleet meets 2-nines \
           liveness under uncertainty weighting" );
      ( "committee-weighted, static",
        static "committee-weighted",
        Ok
          {|{"protocol": "committee(3 of 5)", "n": 5, "engine": "enumeration-binary", "p_safe": 0.99999999999999989, "p_live": 0.99970199999999987, "p_safe_live": 0.99970199999999987, "nines": 3.5257837359235533}|}
      );
      ( "committee-weighted, markov at 2",
        markov "committee-weighted",
        Ok
          {|{"protocol": "committee(7 of 7)", "n": 7, "engine": "enumeration-binary", "p_safe": 0.99999999999999978, "p_live": 0.99559749373852824, "p_safe_live": 0.99559749373852824, "nines": 2.3563000176842062}|}
      );
    ]

let suite =
  [
    Alcotest.test_case "raft sizings structural" `Quick test_raft_sizings_all_structurally_safe;
    Alcotest.test_case "best raft minimal" `Quick test_best_raft_picks_cheapest_meeting_target;
    Alcotest.test_case "ranked committee prefix" `Quick
      test_ranked_committee_prefix_of_most_reliable;
    Alcotest.test_case "ranked committee grows" `Quick test_ranked_committee_grows_with_target;
    Alcotest.test_case "random committee" `Quick test_random_committee_properties;
    Alcotest.test_case "diversified committee" `Quick
      test_diversified_committee_respects_domains;
    Alcotest.test_case "random >= ranked size" `Slow test_random_committee_size_at_least_ranked;
    Alcotest.test_case "timeout multipliers" `Quick test_timeout_multipliers_ordering;
    Alcotest.test_case "leader fault probability" `Quick test_leader_fault_probability_strategies;
    Alcotest.test_case "expected re-elections" `Quick test_expected_reelections_ranking;
    Alcotest.test_case "phi zero after beat" `Quick test_phi_zero_after_heartbeat;
    Alcotest.test_case "phi grows with silence" `Quick test_phi_grows_with_silence;
    Alcotest.test_case "phi tolerates jitter" `Quick test_phi_tolerates_jitter;
    Alcotest.test_case "detector bookkeeping" `Quick test_detector_bookkeeping;
    Alcotest.test_case "window liveness" `Quick test_window_liveness_basics;
    Alcotest.test_case "decide: swap rule" `Quick test_decide_swap_rule;
    Alcotest.test_case "decide: reverts a useless swap" `Quick
      test_decide_reverts_useless_swap;
    Alcotest.test_case "riskiest" `Quick test_riskiest;
    Alcotest.test_case "reconfig beats neglect" `Slow test_reconfig_executor_beats_neglect;
    Alcotest.test_case "reconfig idle when healthy" `Quick
      test_reconfig_executor_idle_on_healthy_fleet;
    Alcotest.test_case "reconfig validation" `Quick test_reconfig_executor_validation;
    Alcotest.test_case "reconfig keeps safer members" `Quick
      test_reconfig_executor_keeps_safer_members;
    Alcotest.test_case "planner consistent plan" `Quick test_planner_produces_consistent_plan;
    Alcotest.test_case "planner unattainable" `Quick test_planner_unattainable_target;
    Alcotest.test_case "planner execution healthy" `Slow test_planner_execution_healthy;
    Alcotest.test_case "planner execution with crash" `Quick
      test_planner_execution_with_crash;
    Alcotest.test_case "reputation biases elections" `Slow
      test_reputation_multipliers_bias_elections;
    Alcotest.test_case "reputation improves tail latency" `Slow
      test_reputation_improves_tail_latency;
    QCheck_alcotest.to_alcotest prop_weighted_committee_zero_is_ranked;
    QCheck_alcotest.to_alcotest prop_weighted_committee_meets_target;
    QCheck_alcotest.to_alcotest prop_weighted_raft_zero_is_best;
    QCheck_alcotest.to_alcotest prop_weighted_raft_attainable_implies_unweighted;
    Alcotest.test_case "weighted registry entries" `Quick
      test_weighted_registry_entries;
    Alcotest.test_case "weighted registry overrides" `Quick
      test_weighted_registry_overrides;
    Alcotest.test_case "weighted registry dynamic uncertainty" `Quick
      test_weighted_registry_dynamic_uncertainty;
    Alcotest.test_case "weighted validation" `Quick test_weighted_validation;
    Alcotest.test_case "weighted prefers trusted node" `Quick
      test_weighted_prefers_trusted_node;
    Alcotest.test_case "weighted registry payload bytes" `Quick
      test_weighted_registry_payload_bytes;
  ]
