(* Quickstart: how reliable is my consensus deployment, really?

   The f-threshold model says a 3-node Raft cluster "tolerates one
   fault". The probabilistic model answers the question operators
   actually ask: with THESE machines, how many nines of safety and
   liveness do I get — and what should I change if that is not enough?

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Describe the fleet. Three nodes, each with a 1% chance of
     failing during the mission window (the paper's §3 setting). *)
  let fleet = Faultmodel.Fleet.uniform ~n:3 ~p:0.01 () in

  (* 2. Pick the protocol model: standard Raft with majority quorums. *)
  let raft = Probcons.Raft_model.protocol (Probcons.Raft_model.default 3) in

  (* 3. Ask the analysis engine. *)
  let result = Probcons.Analysis.run raft fleet in
  Format.printf "Raft, 3 nodes, p_u = 1%%:@.  %a@.  (%a of safety and liveness)@.@."
    Probcons.Analysis.pp_result result Prob.Nines.pp_nines
    result.Probcons.Analysis.p_safe_live;

  (* "Fully safe and live with f=1"? No: 99.97%. All guarantees are
     probabilistic, like it or not. *)

  (* 4. Same question for a PBFT deployment with Byzantine faults. *)
  let byz_fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:4 ~p:0.01 () in
  let pbft = Probcons.Pbft_model.protocol (Probcons.Pbft_model.default 4) in
  Format.printf "PBFT, 4 nodes, p_u = 1%% (Byzantine):@.  %a@.@."
    Probcons.Analysis.pp_result
    (Probcons.Analysis.run pbft byz_fleet);

  (* 5. Fault curves need not be uniform or constant. A fleet mixing
     fresh disks (infant mortality) with worn ones changes the answer
     over time. *)
  let bathtub =
    Faultmodel.Fault_curve.Bathtub
      {
        infant = Weibull { shape = 0.5; scale = 200_000. };
        useful = Exponential { rate = 1.2e-6 };
        wearout = Shifted { offset = 30_000.; curve = Weibull { shape = 3.; scale = 30_000. } };
        t1 = 2_000.;
        t2 = 30_000.;
      }
  in
  let aging_fleet =
    Faultmodel.Fleet.of_nodes
      (List.init 5 (fun id -> Faultmodel.Node.make ~id bathtub))
  in
  let raft5 = Probcons.Raft_model.protocol (Probcons.Raft_model.default 5) in
  Format.printf "Raft on 5 bathtub-curve nodes, by mission time:@.";
  List.iter
    (fun hours ->
      let r = Probcons.Analysis.run ~at:hours raft5 aging_fleet in
      Format.printf "  t = %6.0f h: safe&live %s@." hours
        (Prob.Nines.percent_string r.Probcons.Analysis.p_safe_live))
    [ 1_000.; 8_766.; 26_298.; 43_830. ];

  (* 6. Not enough nines? Resize the quorums against an explicit
     target instead of guessing. *)
  let fleet9 = Faultmodel.Fleet.uniform ~n:9 ~p:0.02 () in
  (match Probcons.Dynamic_quorum.best_raft ~target_live:0.9999 fleet9 with
  | Some choice ->
      Format.printf
        "@.For 9 nodes at p=2%% and a 4-nines liveness target, flexible Raft can use@.\
        \  q_per = %d, q_vc = %d (live %s) — cheaper commits than majority-5.@."
        choice.params.Probcons.Raft_model.q_per choice.params.Probcons.Raft_model.q_vc
        (Prob.Nines.percent_string choice.p_live)
  | None -> Format.printf "no sizing meets the target@.")
