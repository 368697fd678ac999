(* Reproduction harness: regenerates every table and quantitative claim
   of "Real Life Is Uncertain. Consensus Should Be Too!" (HotOS 2025).

   One section per experiment in DESIGN.md's index (T1, T2, E3–E20).
   The reproduced tables are deterministic; only E20's engine timings
   are machine-dependent. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let pct = Prob.Nines.percent_string

(* ---------------------------------------------------------------- T1 *)

let table1 () =
  section "T1. Table 1: PBFT reliability, uniform p_u = 1%";
  print_string (Probcons.Report.render (Probcons.Sweep.table1 ()));
  print_endline
    "paper: safe 99.94/99.9990/99.997/99.99993, live 99.94/99.90/99.997/99.995"

(* ---------------------------------------------------------------- T2 *)

let table2 () =
  section "T2. Table 2: Raft reliability for uniform node failure p_u";
  print_string (Probcons.Report.render (Probcons.Sweep.table2 ()));
  print_endline
    "paper row N=3: 99.97 / 99.88 / 99.53 / 98.18 (all rows match to printed digits)"

(* ---------------------------------------------------------------- E3 *)

let e3_equivalence () =
  section "E3. Cheaper fleets with equal nines (3 nodes @1% vs 9 @8%)";
  let target = Probcons.Equivalence.raft_reliability ~n:3 ~p:0.01 in
  Printf.printf "target: Raft n=3, p=1%% -> %s safe-and-live\n" (pct target);
  List.iter
    (fun p ->
      match
        Probcons.Equivalence.min_raft_cluster ~target ~p ~tolerance:5e-5 ()
      with
      | Some e ->
          Printf.printf "  p=%-4g -> n=%-2d (%s)\n" p e.Probcons.Equivalence.n
            (pct e.Probcons.Equivalence.p_safe_live)
      | None -> Printf.printf "  p=%-4g -> unattainable\n" p)
    [ 0.01; 0.02; 0.04; 0.08 ];
  (* The cost consequence, over the synthetic catalog. *)
  let premium = List.hd Costmodel.Machine.default_catalog in
  let baseline =
    Option.get (Costmodel.Optimizer.min_cluster premium ~target:0.9997 ())
  in
  (match Costmodel.Optimizer.optimize ~target:0.9997 () with
  | Some best ->
      Printf.printf
        "cost: baseline %d x %s at $%.2f/h; cheapest %d x %s at $%.2f/h -> %.1fx cheaper\n"
        baseline.Costmodel.Optimizer.n baseline.machine.Costmodel.Machine.name
        baseline.Costmodel.Optimizer.hourly_cost best.Costmodel.Optimizer.n
        best.machine.Costmodel.Machine.name best.Costmodel.Optimizer.hourly_cost
        (Costmodel.Optimizer.savings_vs ~baseline best)
  | None -> ());
  print_endline "paper: same 99.97% from 9 nodes at p=8%; ~3x cost reduction"

(* ---------------------------------------------------------------- E4 *)

let e4_vc_trigger () =
  section "E4. Random view-change trigger quorums (N=100, p=1%)";
  List.iter
    (fun k ->
      let p = Quorum.Probabilistic.contains_correct ~n:100 ~k ~p:0.01 in
      Printf.printf "  |Qvc_t| = %2d -> contains a correct node w.p. %s (%.1f nines)\n" k
        (pct p) (Prob.Nines.of_prob p))
    [ 2; 3; 5; 34 ];
  Printf.printf "  smallest k for ten nines: %d\n"
    (Quorum.Probabilistic.quorum_size_for_correct ~p:0.01 ~target:(1. -. 1e-10));
  print_endline "paper: 5 random nodes already give ten nines; f-threshold insists on 34"

(* ---------------------------------------------------------------- E5 *)

let e5_heterogeneous () =
  section "E5. Heterogeneous 7-node cluster (4 @8% + 3 @1%)";
  let raft = Probcons.Raft_model.protocol (Probcons.Raft_model.default 7) in
  let flaky = Faultmodel.Fleet.uniform ~n:7 ~p:0.08 () in
  let mixed = Faultmodel.Fleet.mixed [ (4, 0.08); (3, 0.01) ] in
  let base = Probcons.Analysis.run raft flaky in
  let upgraded = Probcons.Analysis.run raft mixed in
  Printf.printf "  all-flaky:              S&L %s   (paper: 99.88%%)\n"
    (pct base.Probcons.Analysis.p_safe_live);
  Printf.printf "  3 nodes upgraded to 1%%: S&L %s   (paper: ~99.98%%)\n"
    (pct upgraded.Probcons.Analysis.p_safe_live);
  let dur placement = Probcons.Durability.durability mixed placement ~size:4 in
  Printf.printf "  durability, worst-case placement:        %s\n"
    (pct (dur Probcons.Durability.Worst_case));
  Printf.printf "  durability, quorum must hold 1 reliable: %s  (paper: 99.994%%)\n"
    (pct (dur (Probcons.Durability.Constrained { reliable = [ 4; 5; 6 ]; min_reliable = 1 })));
  Printf.printf "  durability, best-case placement:         %s\n"
    (pct (dur Probcons.Durability.Best_case))

(* ---------------------------------------------------------------- E6 *)

let e6_tradeoff () =
  section "E6. Hidden safety/liveness trade-off (PBFT 4 vs 5 vs 7 nodes)";
  List.iter
    (fun p ->
      let c = Probcons.Tradeoff.pbft_node_count ~p ~n_base:4 ~n_alt:5 in
      Printf.printf "  p=%-6g safety x%-6.1f liveness /%.2f\n" p
        c.Probcons.Tradeoff.safety_improvement c.Probcons.Tradeoff.liveness_degradation)
    [ 0.01; 0.0125; 0.014 ];
  let pbft n =
    Probcons.Analysis.run
      (Probcons.Pbft_model.protocol (Probcons.Pbft_model.default n))
      (Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n ~p:0.01 ())
  in
  let five = pbft 5 and seven = pbft 7 in
  Printf.printf "  5-node safety %s vs 7-node safety %s -> 5-node %s safer, 40%% cheaper\n"
    (pct five.Probcons.Analysis.p_safe)
    (pct seven.Probcons.Analysis.p_safe)
    (if five.Probcons.Analysis.p_safe > seven.Probcons.Analysis.p_safe then "is"
     else "is NOT");
  print_endline "paper: 42-60x safety gain, 1.67x liveness cost; 5-node safer than 7-node"

(* ---------------------------------------------------------------- E7 *)

let e7_large_cluster () =
  section "E7. 100-node cluster, |Qper| = 10, p = 10%";
  let p_ten_faults = Prob.Distribution.binomial_tail_ge ~n:100 ~p:0.1 10 in
  Printf.printf "  P(at least 10 faults):                    %.2f   (paper: ~50%%)\n"
    p_ten_faults;
  let p_exact_overlap = 0.1 ** 10. in
  Printf.printf "  P(faults hit one specific 10-node quorum): %.1e (paper: 1 in 10 billion)\n"
    p_exact_overlap;
  (* And the E7 framing end-to-end: expected loss probability if the
     quorum was placed uniformly at random. *)
  let fleet = Faultmodel.Fleet.uniform ~n:100 ~p:0.1 () in
  Printf.printf "  random-quorum data-loss probability:       %.1e\n"
    (Probcons.Durability.data_loss_probability fleet Probcons.Durability.Random ~size:10);
  (* Conditional view: even GIVEN exactly 10 failures, covering the one
     quorum that matters is hypergeometrically unlikely. *)
  Printf.printf "  P(loss | exactly 10 failures):             %.1e\n"
    (Quorum.Formation.loss_given_failures ~n:100 ~k:10 ~j:10);
  (* The paper's dependence caveat, quantified: two quorums drawn from
     the same live set intersect more often than independence says. *)
  Printf.printf
    "  quorum-intersection miss, independent model vs shared-live-set: %.1e vs %.1e (%.1fx)\n"
    (1. -. Quorum.Formation.intersection_independent ~n:100 ~k1:10 ~k2:10)
    (1. -. Quorum.Formation.intersection_given_live ~n:100 ~p:0.1 ~k1:10 ~k2:10)
    (Quorum.Formation.dependence_gain ~n:100 ~p:0.1 ~k1:10 ~k2:10)

(* ---------------------------------------------------------------- E8 *)

let e8_simulation () =
  section "E8. Analytical liveness vs executed protocols (Monte Carlo)";
  (* Raft: sample failure configurations, execute, compare. *)
  let n = 5 and p = 0.10 in
  let fleet = Faultmodel.Fleet.uniform ~n ~p () in
  let analytical =
    Probcons.Analysis.run (Probcons.Raft_model.protocol (Probcons.Raft_model.default n)) fleet
  in
  let commands = List.init 5 (fun i -> 1000 + i) in
  let trials = 200 in
  let rng = Prob.Rng.create 99 in
  let crash_probs = Faultmodel.Fleet.crash_probs fleet in
  let byz_probs = Array.make n 0. in
  let live_count = ref 0 and safe_count = ref 0 in
  for trial = 1 to trials do
    let plan = Dessim.Fault_injector.sample_plan rng ~crash_probs ~byz_probs in
    let cluster = Raft_sim.Raft_cluster.create ~n ~seed:trial () in
    Raft_sim.Raft_cluster.inject cluster plan;
    Raft_sim.Raft_cluster.submit_workload cluster ~commands ~start:500. ~interval:100.;
    Raft_sim.Raft_cluster.run cluster ~until:20_000.;
    let failed = List.map fst plan in
    let correct = List.filter (fun i -> not (List.mem i failed)) (List.init n Fun.id) in
    let report = Raft_sim.Raft_checker.check cluster ~expected:commands ~correct in
    if report.Raft_sim.Raft_checker.live then incr live_count;
    if Raft_sim.Raft_checker.safe report then incr safe_count
  done;
  let low, high = Prob.Montecarlo.wilson_interval ~successes:!live_count ~trials in
  Printf.printf "  Raft n=%d p=%g: analytical P(live) = %s\n" n p
    (pct analytical.Probcons.Analysis.p_live);
  Printf.printf "  simulated: %d/%d live, 95%% CI [%.3f, %.3f]; prediction inside: %b\n"
    !live_count trials low high
    (analytical.Probcons.Analysis.p_live >= low
    && analytical.Probcons.Analysis.p_live <= high);
  Printf.printf "  all %d executed runs safe: %b\n" trials (!safe_count = trials);
  (* PBFT: Byzantine primary, safety and recovery. *)
  let pbft_ok = ref 0 in
  let pbft_trials = 10 in
  for seed = 1 to pbft_trials do
    let cluster = Pbft_sim.Pbft_cluster.create ~n:4 ~seed () in
    Pbft_sim.Pbft_cluster.inject cluster [ (0, Dessim.Fault_injector.Byzantine_from 0.) ];
    Pbft_sim.Pbft_cluster.submit_workload cluster ~commands ~start:200. ~interval:150.;
    Pbft_sim.Pbft_cluster.run cluster ~until:60_000.;
    let report =
      Pbft_sim.Pbft_checker.check cluster ~expected:commands ~correct:[ 1; 2; 3 ]
        ~honest:[ 1; 2; 3 ]
    in
    if report.Pbft_sim.Pbft_checker.agreement_ok && report.Pbft_sim.Pbft_checker.live then
      incr pbft_ok
  done;
  Printf.printf "  PBFT n=4 with Byzantine primary: safe and live in %d/%d runs\n" !pbft_ok
    pbft_trials

(* ---------------------------------------------------------------- E9 *)

let e9_probnative () =
  section "E9. Probability-native components: dynamic quorums and committees";
  let fleet9 = Faultmodel.Fleet.uniform ~n:9 ~p:0.02 () in
  print_endline "  flexible Raft sizings for 9 nodes at p=2%:";
  List.iter
    (fun (c : Probcons.Dynamic_quorum.raft_choice) ->
      Printf.printf "    qper=%d qvc=%d -> live %s\n"
        c.params.Probcons.Raft_model.q_per c.params.Probcons.Raft_model.q_vc
        (pct c.p_live))
    (Probcons.Dynamic_quorum.raft_sizings fleet9);
  let big = Faultmodel.Fleet.mixed [ (4, 0.005); (10, 0.02); (6, 0.08) ] in
  (match Probcons.Committee.reliability_ranked ~target:(Prob.Nines.to_prob 4.) big with
  | Some c ->
      Printf.printf "  ranked committee for 4 nines over 20 mixed nodes: %d members (%s)\n"
        (List.length c.Probcons.Committee.members)
        (pct c.Probcons.Committee.p_safe_live)
  | None -> ());
  let mixed = Faultmodel.Fleet.mixed [ (4, 0.08); (3, 0.01) ] in
  Printf.printf "  leader fault probability: oblivious %.3f vs reputation %.3f\n"
    (Probnative.Leader_reputation.leader_fault_probability mixed ~strategy:`Uniform)
    (Probnative.Leader_reputation.leader_fault_probability mixed ~strategy:`Reputation)

(* ---------------------------------------------------------------- E10 *)

let e10_markov () =
  section "E10. Storage-style Markov metrics for consensus clusters";
  let t =
    Probcons.Report.create
      ~header:[ "N"; "quorum"; "AFR"; "MTTF (h)"; "MTTDL (h)"; "availability" ]
  in
  List.iter
    (fun (n, afr) ->
      let quorum = (n / 2) + 1 in
      let spec = Markov.Repair_model.of_afr ~n ~quorum ~afr ~mttr_hours:24. in
      Probcons.Report.add_row t
        [
          string_of_int n;
          string_of_int quorum;
          Printf.sprintf "%g%%" (afr *. 100.);
          Printf.sprintf "%.3g" (Markov.Repair_model.mttf spec);
          Printf.sprintf "%.3g" (Markov.Repair_model.mttdl spec);
          pct (Markov.Repair_model.availability spec);
        ])
    [ (3, 0.04); (5, 0.04); (3, 0.08); (5, 0.08); (9, 0.08) ];
  print_string (Probcons.Report.render t)

(* ---------------------------------------------------------------- E11 *)

let e11_benor () =
  section "E11. Beyond quorums: Ben-Or randomized consensus";
  (* Decision-round distribution for split inputs, across seeds; local
     coins vs a Rabia-style shared coin. *)
  List.iter
    (fun n ->
      let initial = List.init n (fun i -> i mod 2) in
      let trials = 40 in
      let sweep ?common_coin () =
        let total_rounds = ref 0 and max_rounds = ref 0 and ok = ref 0 in
        for seed = 1 to trials do
          let cluster =
            Benor_sim.Benor_cluster.create ~seed ?common_coin ~initial_values:initial ()
          in
          Benor_sim.Benor_cluster.run cluster ~until:1e8;
          let report =
            Benor_sim.Benor_cluster.check cluster ~correct:(List.init n Fun.id)
          in
          if report.Benor_sim.Benor_cluster.agreement_ok
             && report.Benor_sim.Benor_cluster.all_correct_decided
          then incr ok;
          total_rounds := !total_rounds + report.Benor_sim.Benor_cluster.max_round;
          max_rounds := max !max_rounds report.Benor_sim.Benor_cluster.max_round
        done;
        (!ok, float_of_int !total_rounds /. float_of_int trials, !max_rounds)
      in
      let ok_l, mean_l, max_l = sweep () in
      let ok_c, mean_c, max_c = sweep ~common_coin:42 () in
      Printf.printf
        "  n=%-2d local coin: %d/%d ok, mean %.1f rounds (max %d); shared coin: %d/%d ok, \
         mean %.1f (max %d)\n"
        n ok_l trials mean_l max_l ok_c trials mean_c max_c)
    [ 3; 5; 7; 9 ];
  (* Analytical: quorum-free safety is immune to crash counts. *)
  let fleet = Faultmodel.Fleet.uniform ~n:5 ~p:0.3 () in
  let benor =
    Probcons.Analysis.run (Probcons.Benor_model.protocol (Probcons.Benor_model.default 5))
      fleet
  in
  let raft =
    Probcons.Analysis.run (Probcons.Raft_model.protocol (Probcons.Raft_model.default 5))
      fleet
  in
  Printf.printf
    "  crash p=30%%: Ben-Or safe %s / live %s; Raft safe %s / live %s\n"
    (pct benor.Probcons.Analysis.p_safe) (pct benor.Probcons.Analysis.p_live)
    (pct raft.Probcons.Analysis.p_safe) (pct raft.Probcons.Analysis.p_live);
  (* Rabia-style leaderless SMR on top of the same idea: full log
     replication with no leader and no intersecting quorums. *)
  let ok = ref 0 and trials = 20 in
  for seed = 1 to trials do
    let cluster = Rabia_sim.Rabia_cluster.create ~n:5 ~seed () in
    let cmds = List.init 10 (fun i -> 100 + i) in
    Rabia_sim.Rabia_cluster.inject cluster
      (Dessim.Fault_injector.of_failed_nodes ~at:300. [ seed mod 5; (seed + 2) mod 5 ]);
    Rabia_sim.Rabia_cluster.submit_workload cluster ~commands:cmds ~start:100.
      ~interval:80.;
    Rabia_sim.Rabia_cluster.run cluster ~until:60_000.;
    let correct =
      List.filter (fun i -> i <> seed mod 5 && i <> (seed + 2) mod 5) (List.init 5 Fun.id)
    in
    let r = Rabia_sim.Rabia_cluster.check cluster ~expected:cmds ~correct in
    if r.Rabia_sim.Rabia_cluster.agreement_ok && r.Rabia_sim.Rabia_cluster.live then
      incr ok
  done;
  Printf.printf
    "  Rabia-style SMR, 2 of 5 crashed: %d/%d runs replicate the full log leaderlessly\n"
    !ok trials;
  (* Message accounting: Rabia pays several all-to-all phases per slot
     but nothing when idle; Raft pays one leader round-trip per command
     plus continuous heartbeats. At this (low) load they come out
     comparable. *)
  let raft_cluster = Raft_sim.Raft_cluster.create ~n:5 ~seed:3 () in
  let cmds = List.init 20 (fun i -> 100 + i) in
  Raft_sim.Raft_cluster.submit_workload raft_cluster ~commands:cmds ~start:1000.
    ~interval:100.;
  Raft_sim.Raft_cluster.run raft_cluster ~until:10_000.;
  let raft_sent, _ = Raft_sim.Raft_cluster.message_stats raft_cluster in
  let rabia_cluster = Rabia_sim.Rabia_cluster.create ~n:5 ~seed:3 () in
  Rabia_sim.Rabia_cluster.submit_workload rabia_cluster ~commands:cmds ~start:1000.
    ~interval:100.;
  Rabia_sim.Rabia_cluster.run rabia_cluster ~until:10_000.;
  let rabia_sent, _ = Rabia_sim.Rabia_cluster.message_stats rabia_cluster in
  Printf.printf
    "  messages for 20 commands, n=5: Raft %d (incl. heartbeats), Rabia %d (idle-silent)\n"
    raft_sent rabia_sent

(* ---------------------------------------------------------------- E12 *)

let e12_mixed_faults () =
  section "E12. Mixed crash/Byzantine faults: Raft vs PBFT vs Upright";
  (* The paper's §2(4) numbers: ~4% AFR crashes, Byzantine corruption
     ~0.25% of faults. *)
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:0.0025 ~n:7 ~p:0.04 () in
  let t =
    Probcons.Report.create ~header:[ "protocol"; "safe"; "live"; "safe&live" ]
  in
  List.iter
    (fun (name, r) ->
      Probcons.Report.add_row t
        [
          name;
          pct r.Probcons.Analysis.p_safe;
          pct r.Probcons.Analysis.p_live;
          pct r.Probcons.Analysis.p_safe_live;
        ])
    (Probcons.Upright_model.compare_with_classics fleet);
  print_string (Probcons.Report.render t);
  print_endline
    "  (Raft gambles on zero Byzantine faults; PBFT pays for all-Byzantine;\n\
    \   the dual-threshold model prices the two classes separately)"

(* ---------------------------------------------------------------- E13 *)

let e13_bounds () =
  section "E13. Exact tails vs Chernoff/Hoeffding bounds";
  let t =
    Probcons.Report.create
      ~header:[ "n"; "p"; "k"; "exact"; "chernoff-KL"; "hoeffding"; "chern./exact" ]
  in
  List.iter
    (fun (n, p, k) ->
      let c = Prob.Bounds.compare_tail ~n ~p ~k in
      Probcons.Report.add_row t
        [
          string_of_int n;
          Printf.sprintf "%g" p;
          string_of_int k;
          Printf.sprintf "%.2e" c.Prob.Bounds.exact;
          Printf.sprintf "%.2e" c.Prob.Bounds.chernoff;
          Printf.sprintf "%.2e" c.Prob.Bounds.hoeffding;
          Printf.sprintf "%.1fx" c.Prob.Bounds.chernoff_ratio;
        ])
    [ (3, 0.01, 2); (5, 0.01, 3); (9, 0.08, 5); (100, 0.1, 20); (100, 0.01, 5) ];
  print_string (Probcons.Report.render t);
  print_endline
    "  (exponential bounds overstate the failure probability at cluster scale —\n\
    \   the regime where the paper computes tails exactly)"

(* ---------------------------------------------------------------- E14 *)

let e14_end_to_end () =
  section "E14. End-to-end SLOs: availability and durability nines";
  let spec afr = Markov.Repair_model.of_afr ~n:5 ~quorum:3 ~afr ~mttr_hours:24. in
  List.iter
    (fun (afr, failover_hours) ->
      let t =
        Probcons.End_to_end.evaluate ~spec:(spec afr) ~failover_hours
          ~mission_hours:87_660.
      in
      Format.printf "  AFR %g%%, failover %.2gh: %a@." (afr *. 100.) failover_hours
        Probcons.End_to_end.pp t)
    [ (0.04, 0.01); (0.04, 1.0); (0.08, 0.01) ];
  (match
     Probcons.End_to_end.required_failover_hours ~spec:(spec 0.04)
       ~availability_nines:5.
   with
  | Some budget ->
      Printf.printf "  failover budget for five nines at AFR 4%%: %.1f hours/incident\n"
        budget
  | None -> print_endline "  five nines unattainable");
  print_endline
    "  (a live protocol with slow recovery misses the availability SLO - paper s4)"

(* ---------------------------------------------------------------- E15 *)

let e15_planner () =
  section "E15. Probability-native deployment planner, plan -> execution";
  let fleet = Faultmodel.Fleet.mixed [ (3, 0.001); (8, 0.02); (5, 0.10) ] in
  Printf.printf "  fleet: 3 nodes at p=0.1%%, 8 at 2%%, 5 at 10%%\n";
  List.iter
    (fun nines ->
      let target = Prob.Nines.to_prob nines in
      match Probnative.Planner.plan ~target fleet with
      | Some plan ->
          Format.printf "  target %.0f nines: %a@." nines Probnative.Planner.pp_plan plan
      | None -> Printf.printf "  target %.0f nines: unattainable\n" nines)
    [ 3.; 4.; 5.; 6. ];
  (match Probnative.Planner.plan ~target:(Prob.Nines.to_prob 4.) fleet with
  | Some plan ->
      let ok = ref 0 and preferred = ref 0 in
      let runs = 20 in
      for seed = 1 to runs do
        let e = Probnative.Planner.execute ~seed fleet plan in
        if e.Probnative.Planner.safe && e.Probnative.Planner.live then incr ok;
        if e.Probnative.Planner.leader_was_most_reliable then incr preferred
      done;
      Printf.printf
        "  executing the 4-nines plan: %d/%d runs safe+live; preferred leader won %d/%d\n"
        !ok runs !preferred runs
  | None -> ())

(* ---------------------------------------------------------------- E16 *)

let e16_reconfig () =
  section "E16. Preemptive reconfiguration, executed (managed vs unmanaged)";
  (* Three wearing-out members (Weibull wear-out inside the mission),
     four fresh spares; node crash times are sampled from the same
     curves in both arms. One simulated ms = one mission hour. *)
  let aging = Faultmodel.Fault_curve.Weibull { shape = 4.; scale = 15_000. } in
  let fresh = Faultmodel.Fault_curve.Weibull { shape = 4.; scale = 80_000. } in
  let universe =
    Faultmodel.Fleet.of_nodes
      (List.init 7 (fun id -> Faultmodel.Node.make ~id (if id < 3 then aging else fresh)))
  in
  let runs = 10 in
  let managed = ref 0 and unmanaged = ref 0 and swaps = ref 0 in
  for seed = 1 to runs do
    let m =
      Probnative.Reconfig_executor.run ~seed ~universe ~initial_members:[ 0; 1; 2 ]
        ~target_live:0.999 ~review_interval:1000. ~horizon:30_000. ~commands:20 ()
    in
    let u =
      Probnative.Reconfig_executor.run_unmanaged ~seed ~universe
        ~initial_members:[ 0; 1; 2 ] ~horizon:30_000. ~commands:20 ()
    in
    if m.Probnative.Reconfig_executor.managed_live then incr managed;
    if u.Probnative.Reconfig_executor.managed_live then incr unmanaged;
    swaps := !swaps + m.Probnative.Reconfig_executor.swaps_completed
  done;
  Printf.printf
    "  managed (predictive swaps): %d/%d missions fully live (%.1f swaps/mission)\n"
    !managed runs
    (float_of_int !swaps /. float_of_int runs);
  Printf.printf "  unmanaged (f-threshold fatalism): %d/%d missions fully live\n"
    !unmanaged runs;
  print_endline
    "  (fault curves predict wear-out; reconfiguring BEFORE failure preserves the\n\
    \   quorum - the paper's preemptive-reconfiguration direction, executed)"

(* ---------------------------------------------------------------- E17 *)

let e17_failure_detector () =
  section "E17. Phi-accrual failure detection: threshold vs latency/false-positives";
  (* A monitored node heartbeats every 100ms through a jittery network
     (5ms base + exp(10ms) tail); it crashes at t=60s. For each phi
     threshold: false positives while healthy, detection delay after
     the crash. *)
  let run_one threshold =
    let engine = Dessim.Engine.create ~seed:31 () in
    let net =
      Dessim.Network.create ~engine ~n:2
        ~latency:(Dessim.Network.Lognormal_ish { base = 5.; mean_extra = 10. })
        ()
    in
    let detector = Probnative.Failure_detector.create () in
    let crash_time = 60_000. in
    let false_positives = ref 0 and detected_at = ref None in
    Dessim.Network.set_handler net 1 (fun ~src:_ () ->
        Probnative.Failure_detector.heartbeat detector ~now:(Dessim.Engine.now engine));
    (* Heartbeats until the crash. *)
    let t = ref 100. in
    while !t < crash_time do
      let time = !t in
      ignore
        (Dessim.Engine.schedule_at engine ~time (fun () ->
             Dessim.Network.send net ~src:0 ~dst:1 ()));
      t := !t +. 100.
    done;
    (* Poll the detector every 20ms through t=90s. *)
    let p = ref 20. in
    while !p < 90_000. do
      let time = !p in
      ignore
        (Dessim.Engine.schedule_at engine ~time (fun () ->
             let suspect =
               Probnative.Failure_detector.suspect ~threshold detector ~now:time
             in
             if suspect && time < crash_time then incr false_positives;
             if suspect && time >= crash_time && !detected_at = None then
               detected_at := Some (time -. crash_time)));
      p := !p +. 20.
    done;
    Dessim.Engine.run engine;
    (!false_positives, !detected_at)
  in
  List.iter
    (fun threshold ->
      let false_positives, detected = run_one threshold in
      Printf.printf "  phi > %-4g false positives: %-4d detection delay: %s\n" threshold
        false_positives
        (match detected with
        | Some d -> Printf.sprintf "%.0f ms" d
        | None -> "not detected"))
    [ 0.5; 1.; 2.; 4.; 8. ];
  print_endline
    "  (the threshold IS the guarantee: phi > k admits ~10^-k false-positive odds\n\
    \   per check, and detection delay grows with the required confidence)"

(* ---------------------------------------------------------------- E18 *)

let e18_stake () =
  section "E18. Stake-weighted consensus: concentration vs reliability";
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:9 ~p:0.03 () in
  let t =
    Probcons.Report.create
      ~header:[ "stake distribution"; "nakamoto"; "safe"; "live" ]
  in
  List.iter
    (fun (label, stakes) ->
      let params = Probcons.Stake_model.make stakes in
      let r = Probcons.Analysis.run (Probcons.Stake_model.protocol params) fleet in
      Probcons.Report.add_row t
        [
          label;
          string_of_int (Probcons.Stake_model.nakamoto_coefficient params);
          pct r.Probcons.Analysis.p_safe;
          pct r.Probcons.Analysis.p_live;
        ])
    [
      ("flat (1 each)", Array.make 9 1.);
      ("mild skew (3,2,2,1...)", [| 3.; 2.; 2.; 1.; 1.; 1.; 1.; 1.; 1. |]);
      ("whale (8,1,1,...)", Array.append [| 8. |] (Array.make 8 1.));
    ];
  print_string (Probcons.Report.render t);
  print_endline
    "  (same machines, same fault curves: stake concentration alone destroys the\n\
    \   guarantee - the probabilistic analysis prices decentralization directly)"

(* ---------------------------------------------------------------- E19 *)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let e19_tail_latency () =
  section "E19. Reputation-based leader selection vs tail latency";
  (* 4 flaky nodes (periodic crash-restarts) + 1 stable node. With
     uniform timeouts the leadership keeps landing on flaky nodes and
     dying with them; reputation multipliers keep the stable node in
     charge. *)
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.08); (1, 0.002) ] in
  let horizon = 60_000. in
  let run ~multipliers ~seed =
    let cluster =
      Raft_sim.Raft_cluster.create ~n:5 ~seed ?timeout_multipliers:multipliers ()
    in
    (* Each flaky node flaps every 6s, staggered, for 1.2s. *)
    let plan =
      List.concat_map
        (fun node ->
          List.filteri (fun i _ -> i < 9)
            (List.init 10 (fun k ->
                 let at = 3000. +. (float_of_int k *. 6000.) +. (float_of_int node *. 700.) in
                 (node, Dessim.Fault_injector.Crash_restart { at; back_at = at +. 1200. }))))
        [ 0; 1; 2; 3 ]
    in
    Raft_sim.Raft_cluster.inject cluster plan;
    let commands = List.init 100 (fun i -> 10_000 + i) in
    let submissions =
      List.mapi (fun i cmd -> (cmd, 2000. +. (float_of_int i *. 500.))) commands
    in
    Raft_sim.Raft_cluster.submit_workload cluster ~commands ~start:2000. ~interval:500.;
    Raft_sim.Raft_cluster.run cluster ~until:horizon;
    Raft_sim.Raft_checker.command_latencies cluster ~submissions ~horizon
  in
  let collect ~multipliers =
    let all = ref [] in
    for seed = 1 to 5 do
      all := run ~multipliers ~seed @ !all
    done;
    let a = Array.of_list !all in
    Array.sort compare a;
    a
  in
  let uniform = collect ~multipliers:None in
  let reputation =
    collect
      ~multipliers:(Some (Probnative.Leader_reputation.timeout_multipliers ~spread:4. fleet))
  in
  let report label a =
    Printf.printf "  %-22s p50 %6.0f ms   p99 %6.0f ms   max %6.0f ms\n" label
      (percentile a 0.50) (percentile a 0.99)
      a.(Array.length a - 1)
  in
  report "oblivious election:" uniform;
  report "reputation-based:" reputation;
  print_endline
    "  (the stable node keeps the lease; client latency stops paying for the\n\
    \   flaky nodes' elections - the paper's tail-latency argument for\n\
    \   reliability-aware leader choice)"

(* ---------------------------------------------------------------- E20 *)

let e20_engine_ablation () =
  section "E20. Ablation: analysis engine choice (count DP / enumeration / MC)";
  (* Identical instance through all three engines: same numbers, very
     different costs; the Monte-Carlo path is the only one that extends
     to correlated faults. *)
  let fleet = Faultmodel.Fleet.mixed [ (8, 0.08); (7, 0.01) ] in
  let proto = Probcons.Raft_model.protocol (Probcons.Raft_model.default 15) in
  let timed strategy =
    let started = Unix.gettimeofday () in
    let r = Probcons.Analysis.run ~strategy proto fleet in
    (r, (Unix.gettimeofday () -. started) *. 1e3)
  in
  let dp, dp_ms = timed Probcons.Analysis.Count_dp in
  let enum, enum_ms = timed Probcons.Analysis.Enumeration in
  let mc, mc_ms = timed (Probcons.Analysis.Monte_carlo 200_000) in
  Printf.printf "  count DP:     S&L %-12s %8.2f ms\n" (pct dp.Probcons.Analysis.p_safe_live) dp_ms;
  Printf.printf "  enumeration:  S&L %-12s %8.2f ms  (2^15 configurations)\n"
    (pct enum.Probcons.Analysis.p_safe_live) enum_ms;
  (match mc.Probcons.Analysis.ci_safe_live with
  | Some (low, high) ->
      Printf.printf "  monte carlo:  S&L %-12s %8.2f ms  (CI [%.4f, %.4f])\n"
        (pct mc.Probcons.Analysis.p_safe_live) mc_ms low high
  | None -> ());
  Printf.printf "  DP = enumeration to %.1e; the DP is %.0fx faster at n=15\n"
    (Float.abs (dp.Probcons.Analysis.p_safe_live -. enum.Probcons.Analysis.p_safe_live))
    (enum_ms /. Float.max dp_ms 1e-3);
  (* And the timeline view enabled by fault curves. *)
  let aging =
    Faultmodel.Fleet.of_nodes
      (List.init 5 (fun id ->
           Faultmodel.Node.make ~id
             (Faultmodel.Fault_curve.Bathtub
                {
                  infant = Weibull { shape = 0.5; scale = 200_000. };
                  useful = Exponential { rate = 1.2e-6 };
                  wearout =
                    Shifted
                      { offset = 30_000.; curve = Weibull { shape = 3.; scale = 30_000. } };
                  t1 = 2_000.;
                  t2 = 30_000.;
                })))
  in
  print_string
    (Probcons.Report.render
       (Probcons.Sweep.timeline aging ~times:[ 1_000.; 8_766.; 26_298.; 43_830.; 52_596. ]))

let () =
  table1 ();
  table2 ();
  e3_equivalence ();
  e4_vc_trigger ();
  e5_heterogeneous ();
  e6_tradeoff ();
  e7_large_cluster ();
  e8_simulation ();
  e9_probnative ();
  e10_markov ();
  e11_benor ();
  e12_mixed_faults ();
  e13_bounds ();
  e14_end_to_end ();
  e15_planner ();
  e16_reconfig ();
  e17_failure_detector ();
  e18_stake ();
  e19_tail_latency ();
  e20_engine_ablation ();
  print_newline ()
