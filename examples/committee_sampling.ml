(* Committee sampling: running consensus on a subset (paper §4).

   A 20-node fleet whose reliability exceeds the application's target
   does not need 20-node quorums. Pick a committee just reliable
   enough, or sample one randomly for fairness, and size probabilistic
   quorums explicitly.

   Run with: dune exec examples/committee_sampling.exe *)

let () =
  (* A realistic mixed fleet: a few premium nodes, a bulk of standard
     ones, some spot stragglers. *)
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.005); (10, 0.02); (6, 0.08) ] in
  let target = Prob.Nines.to_prob 4. in
  Format.printf "Fleet of %d, target %s safe-and-live@.@."
    (Faultmodel.Fleet.size fleet)
    (Prob.Nines.percent_string target);

  (* Reliability-ranked committee: the smallest council of the most
     reliable nodes that meets the target. *)
  (match Probcons.Committee.reliability_ranked ~target fleet with
  | Some c ->
      Format.printf "Ranked committee: %d members %s -> %s@."
        (List.length c.members)
        ("[" ^ String.concat "," (List.map string_of_int c.members) ^ "]")
        (Prob.Nines.percent_string c.p_safe_live)
  | None -> Format.printf "no ranked committee reaches the target@.");

  (* Random committees (Algorand-flavoured): unpredictable membership,
     slightly larger to compensate. *)
  let rng = Prob.Rng.create 2025 in
  (match Probcons.Committee.random_committee_size rng ~target fleet with
  | Some size ->
      Format.printf "Random committee needs ~%d members on average@." size;
      let sample = Probcons.Committee.random_committee rng ~size fleet in
      Format.printf "  e.g. %s -> %s@."
        ("[" ^ String.concat "," (List.map string_of_int sample.members) ^ "]")
        (Prob.Nines.percent_string sample.p_safe_live)
  | None -> Format.printf "random committees cannot reach the target@.");

  (* Probabilistic quorums inside a 100-node system: how big must a
     random quorum be to intersect another with 1e-9 probability of
     failure? (The f-threshold answer would be 51.) *)
  Format.printf "@.Probabilistic quorum sizing over n=100:@.";
  List.iter
    (fun epsilon ->
      let k = Quorum.Probabilistic.epsilon_intersecting_size ~n:100 ~epsilon in
      Format.printf "  intersection failure <= %g: quorums of %d@." epsilon k)
    [ 1e-3; 1e-6; 1e-9 ];

  (* The paper's E4 point: a view-change trigger quorum of 5 random
     nodes at p=1%% already contains a correct node with ten nines. *)
  let p_correct = Quorum.Probabilistic.contains_correct ~n:100 ~k:5 ~p:0.01 in
  Format.printf
    "@.P(random 5-subset contains a correct node | p=1%%) = %s (%a)@."
    (Prob.Nines.percent_string p_correct)
    Prob.Nines.pp_nines p_correct;
  Format.printf "  (the f-threshold rule would insist on %d of 100 nodes)@." 34;

  (* Classical quorum-system metrics for comparison. *)
  Format.printf "@.Naor-Wool metrics at p=2%%:@.";
  List.iter
    (fun (label, qs) ->
      let report = Quorum.Metrics.evaluate_uniform qs ~p:0.02 in
      Format.printf "  %-18s load %.3f  availability %s@." label
        report.Quorum.Metrics.load
        (Prob.Nines.percent_string report.Quorum.Metrics.availability))
    [
      ("majority(9)", Quorum.Quorum_system.majority 9);
      ("grid(3x3)", Quorum.Quorum_system.Grid { rows = 3; cols = 3 });
      ( "weighted stake",
        Quorum.Quorum_system.Weighted
          { weights = [| 4; 3; 3; 2; 1; 1; 1 |]; threshold = 8 } );
    ]
