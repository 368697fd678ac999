(* Distributed trust: TEEs, correlated vulnerabilities, mixed faults.

   The paper's §2 motivates fault curves beyond hardware: in a
   distributed-trust consortium (Azure Confidential Ledger, Signal's
   key recovery), nodes run in SGX/SEV enclaves. Most faults are
   crashes; Byzantine behaviour appears only when an enclave is
   compromised — and enclave vulnerabilities hit *every* node on the
   same TEE platform at once (correlated faults), with risk that can
   spike with the geopolitical context (scaled curves).

   Run with: dune exec examples/distributed_trust.exe *)

let () =
  (* A 7-member consortium. Four members run platform A enclaves, three
     run platform B. Hardware crash AFR 4%; enclave compromise turns a
     node Byzantine — rare (0.25% of faults) while no platform-wide
     vulnerability is known. *)
  let member platform id =
    Faultmodel.Node.make ~id
      ~label:(Printf.sprintf "org-%d(%s)" id platform)
      ~byz_fraction:0.0025
      (Faultmodel.Fault_curve.of_afr 0.04)
  in
  let fleet =
    Faultmodel.Fleet.of_nodes
      (List.init 7 (fun id -> member (if id < 4 then "A" else "B") id))
  in

  (* 1. Mixed faults: Raft gambles on zero Byzantine faults, PBFT pays
     full Byzantine quorums for every fault, Upright splits the budget
     (live with u faults of any kind, safe with <= 1 Byzantine). *)
  Format.printf "Mixed crash/Byzantine faults (crash AFR 4%%, byz fraction 0.25%%):@.";
  List.iter
    (fun (name, result) ->
      Format.printf "  %-8s safe %-12s live %-12s safe&live %s@." name
        (Prob.Nines.percent_string result.Probcons.Analysis.p_safe)
        (Prob.Nines.percent_string result.Probcons.Analysis.p_live)
        (Prob.Nines.percent_string result.Probcons.Analysis.p_safe_live))
    (Probcons.Upright_model.compare_with_classics fleet);

  (* 2. Correlated compromise: a vulnerability in platform A converts
     all four A-nodes to Byzantine at once with 2% annual probability.
     Independence is dangerously optimistic here. *)
  let vulnerability =
    Faultmodel.Correlation.Domains
      [ { members = [ 0; 1; 2; 3 ]; shock_probability = 0.02; conditional_failure = 1.0; byzantine_shock = true } ]
  in
  let pbft = Probcons.Pbft_model.protocol (Probcons.Pbft_model.default 7) in
  let independent = Probcons.Analysis.run pbft fleet in
  let correlated =
    Probcons.Analysis.run_correlated ~trials:400_000 vulnerability pbft fleet
  in
  Format.printf "@.PBFT safety, platform-A vulnerability shock (2%%/yr, hits 4 nodes):@.";
  Format.printf "  assuming independence: %s@."
    (Prob.Nines.percent_string independent.Probcons.Analysis.p_safe);
  Format.printf "  with the correlation:  %s  (the 2%% shock exceeds f=2)@."
    (Prob.Nines.percent_string correlated.Probcons.Analysis.p_safe);

  (* Splitting members across four platforms caps any one shock at
     f = 2 compromised nodes — the fault-curve-aware placement fix. *)
  let diversified_shock =
    Faultmodel.Correlation.Domains
      [
        { members = [ 0; 1 ]; shock_probability = 0.02; conditional_failure = 1.0; byzantine_shock = true };
        { members = [ 2; 3 ]; shock_probability = 0.02; conditional_failure = 1.0; byzantine_shock = true };
        { members = [ 4; 5 ]; shock_probability = 0.02; conditional_failure = 1.0; byzantine_shock = true };
        { members = [ 6 ]; shock_probability = 0.02; conditional_failure = 1.0; byzantine_shock = true };
      ]
  in
  let diversified =
    Probcons.Analysis.run_correlated ~trials:400_000 diversified_shock pbft fleet
  in
  Format.printf
    "  diversified platforms: %s  (single shock <= f; only coincident shocks hurt)@."
    (Prob.Nines.percent_string diversified.Probcons.Analysis.p_safe);

  (* 3. Geopolitical risk as a scaled curve: one member's fault
     probability triples during a tense period; reliability-aware
     leader selection and committee choice react. *)
  let tense =
    Faultmodel.Fleet.of_nodes
      (List.init 7 (fun id ->
           if id = 6 then
             Faultmodel.Node.make ~id ~label:"org-6(tense)"
               (Faultmodel.Fault_curve.Scaled
                  { factor = 3.; curve = Faultmodel.Fault_curve.of_afr 0.04 })
           else member "A" id))
  in
  Format.printf "@.Geopolitical spike on org-6 (fault probability x3):@.";
  Format.printf "  leader fault probability, oblivious: %.4f; reputation-based: %.4f@."
    (Probnative.Leader_reputation.leader_fault_probability tense ~strategy:`Uniform)
    (Probnative.Leader_reputation.leader_fault_probability tense ~strategy:`Reputation);
  (match Probcons.Committee.reliability_ranked ~target:0.995 tense with
  | Some c ->
      Format.printf "  committee for 99.5%%: [%s] -> the risky org is left out@."
        (String.concat "," (List.map string_of_int c.Probcons.Committee.members))
  | None -> Format.printf "  no committee meets the target@.");

  (* 4. And the platform-diversification fix, automated: cap any one
     TEE platform below the committee's fault tolerance. *)
  match
    Probcons.Committee.diversified_ranked ~target:0.99
      ~domains:[ [ 0; 1; 2; 3 ]; [ 4; 5; 6 ] ]
      ~max_per_domain:2 fleet
  with
  | Some c ->
      Format.printf
        "@.Diversified committee (max 2 per platform): [%s] -> no single TEE@ \
         vulnerability can reach a quorum@."
        (String.concat "," (List.map string_of_int c.Probcons.Committee.members))
  | None -> Format.printf "@.no diversified committee meets the target@."
