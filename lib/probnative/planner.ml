type plan = {
  committee : int list;
  quorums : Probcons.Raft_model.params;
  timeout_multipliers : float array;
  p_live : float;
  p_safe_live : float;
}

let subfleet fleet members =
  let nodes = Faultmodel.Fleet.nodes fleet in
  Faultmodel.Fleet.of_nodes (List.map (fun u -> nodes.(u)) members)

let committee_fleet fleet plan = subfleet fleet plan.committee

let plan ~target fleet =
  match Probcons.Committee.reliability_ranked ~target fleet with
  | None -> None
  | Some committee ->
      let members = committee.Probcons.Committee.members in
      let sub = subfleet fleet members in
      let quorums =
        match Probcons.Dynamic_quorum.best_raft ~target_live:target sub with
        | Some choice -> choice.Probcons.Dynamic_quorum.params
        | None ->
            (* Fall back to majority quorums: the committee met the
               target under them by construction. *)
            Probcons.Raft_model.default (List.length members)
      in
      let result = Probcons.Analysis.run (Probcons.Raft_model.protocol quorums) sub in
      Some
        {
          committee = members;
          quorums;
          timeout_multipliers = Leader_reputation.timeout_multipliers sub;
          p_live = result.Probcons.Analysis.p_live;
          p_safe_live = result.Probcons.Analysis.p_safe_live;
        }

type execution = {
  safe : bool;
  live : bool;
  leader_was_most_reliable : bool;
}

let execute ?(seed = 11) ?(crash = []) fleet plan =
  let sub = committee_fleet fleet plan in
  let n = Faultmodel.Fleet.size sub in
  let cluster =
    Raft_sim.Raft_cluster.create ~n ~seed
      ~q_vote:plan.quorums.Probcons.Raft_model.q_vc
      ~q_replicate:plan.quorums.Probcons.Raft_model.q_per
      ~timeout_multipliers:plan.timeout_multipliers ()
  in
  Raft_sim.Raft_cluster.inject cluster (Dessim.Fault_injector.of_failed_nodes crash);
  let cmds = List.init 10 (fun i -> 5000 + i) in
  Raft_sim.Raft_cluster.submit_workload cluster ~commands:cmds ~start:500. ~interval:100.;
  Raft_sim.Raft_cluster.run cluster ~until:60_000.;
  let correct = List.filter (fun i -> not (List.mem i crash)) (List.init n Fun.id) in
  let report = Raft_sim.Raft_checker.check cluster ~expected:cmds ~correct in
  let preferred =
    (* Committee position with the smallest multiplier, i.e. the most
       reliable live member. *)
    let best = ref 0 in
    Array.iteri
      (fun i m ->
        if (not (List.mem i crash))
           && (List.mem !best crash || m < plan.timeout_multipliers.(!best))
        then best := i)
      plan.timeout_multipliers;
    !best
  in
  let leader_was_most_reliable =
    match Raft_sim.Raft_cluster.leader_ids cluster with
    | [ leader ] -> leader = preferred
    | _ -> false
  in
  {
    safe = Raft_sim.Raft_checker.safe report;
    live = report.Raft_sim.Raft_checker.live;
    leader_was_most_reliable;
  }

let pp_plan fmt plan =
  Format.fprintf fmt
    "committee [%s], quorums (qper=%d, qvc=%d), live %s, safe&live %s"
    (String.concat "," (List.map string_of_int plan.committee))
    plan.quorums.Probcons.Raft_model.q_per plan.quorums.Probcons.Raft_model.q_vc
    (Prob.Nines.percent_string plan.p_live)
    (Prob.Nines.percent_string plan.p_safe_live)
