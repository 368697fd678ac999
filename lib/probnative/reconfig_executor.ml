type outcome = {
  swaps_completed : int;
  reviews : int;
  managed_live : bool;
  final_members : int list option;
  commands_committed : int;
}

let sample_crash_plan ~seed universe ~horizon =
  (* Lifetimes depend only on [seed], so the managed and unmanaged arms
     face identical fault schedules. *)
  let rng = Prob.Rng.create ((seed * 7919) + 13) in
  let nodes = Faultmodel.Fleet.nodes universe in
  Array.to_list nodes
  |> List.filter_map (fun node ->
         let lifetime = Faultmodel.Telemetry.sample_lifetime rng node.Faultmodel.Node.curve in
         if lifetime < horizon then
           Some (node.Faultmodel.Node.id, Dessim.Fault_injector.Crash_at lifetime)
         else None)

let member_risk universe cluster ~now ~duration u =
  if not (Raft_sim.Raft_node.alive (Raft_sim.Raft_cluster.node cluster u)) then 1.
  else begin
    let node = Faultmodel.Fleet.node universe u in
    Faultmodel.Fault_curve.window_probability node.Faultmodel.Node.curve ~start:now
      ~duration
  end

let evaluate_outcome cluster ~commands ~crashed ~swaps ~reviews =
  let final_members = Raft_sim.Raft_cluster.members_view cluster in
  let expected = List.init commands (fun i -> 9000 + i) in
  let managed_live =
    match final_members with
    | None -> false
    | Some members ->
        List.for_all
          (fun m ->
            List.mem m crashed
            || List.for_all
                 (fun cmd -> List.mem cmd (Raft_sim.Raft_cluster.committed cluster m))
                 expected)
          members
  in
  let commands_committed =
    match Raft_sim.Raft_cluster.current_leader cluster with
    | Some leader ->
        List.length
          (List.filter
             (fun cmd -> List.mem cmd (Raft_sim.Raft_cluster.committed cluster leader))
             expected)
    | None -> 0
  in
  { swaps_completed = swaps; reviews; managed_live; final_members; commands_committed }

let setup ~seed ~universe ~initial_members ~horizon ~commands =
  let n = Faultmodel.Fleet.size universe in
  let cluster = Raft_sim.Raft_cluster.create ~n ~seed ~initial_members () in
  let crash_plan = sample_crash_plan ~seed universe ~horizon in
  Raft_sim.Raft_cluster.inject cluster crash_plan;
  let expected = List.init commands (fun i -> 9000 + i) in
  let interval = Float.max 100. ((horizon -. 2000.) /. float_of_int (max commands 1)) in
  Raft_sim.Raft_cluster.submit_workload cluster ~commands:expected ~start:1000. ~interval;
  (cluster, List.map fst crash_plan)

let run ?(seed = 5) ~universe ~initial_members ~target_live ~review_interval ~horizon
    ~commands () =
  if review_interval <= 0. then invalid_arg "Reconfig_executor.run: bad review interval";
  let cluster, crashed = setup ~seed ~universe ~initial_members ~horizon ~commands in
  let engine = Raft_sim.Raft_cluster.engine cluster in
  let spares =
    ref
      (List.filter
         (fun u -> not (List.mem u initial_members))
         (List.init (Faultmodel.Fleet.size universe) Fun.id))
  in
  let pending_removal = ref None in
  let swaps = ref 0 and reviews = ref 0 in
  let review () =
    incr reviews;
    let now = Dessim.Engine.now engine in
    match !pending_removal with
    | Some victim ->
        if Raft_sim.Raft_cluster.remove_server cluster victim then begin
          pending_removal := None;
          incr swaps;
          Raft_sim.Raft_cluster.retire_at cluster
            ~time:(now +. (review_interval /. 2.))
            victim
        end
    | None -> (
        match
          ( Raft_sim.Raft_cluster.members_view cluster,
            Raft_sim.Raft_cluster.current_leader cluster )
        with
        | Some members, Some leader -> (
            let members = Array.of_list members in
            let risk_of = member_risk universe cluster ~now ~duration:review_interval in
            let risks = Array.map risk_of members in
            let spares_alive =
              Array.of_list
                (List.filter
                   (fun u -> Raft_sim.Raft_node.alive (Raft_sim.Raft_cluster.node cluster u))
                   !spares)
            in
            (* Victim: the riskiest non-leader member; replacement: the
               healthiest alive spare. The §4 rule decides the swap. *)
            match
              ( Preemptive_reconfig.riskiest ~eligible:(fun i -> members.(i) <> leader) risks,
                Preemptive_reconfig.riskiest
                  (Array.map (fun u -> -.risk_of u) spares_alive) )
            with
            | Some victim, Some best -> (
                let spare = spares_alive.(best) in
                let n = Array.length members in
                match
                  Preemptive_reconfig.decide risks
                    ~tolerated:(n - ((n / 2) + 1)) ~target_live ~victim
                    ~replacement:(risk_of spare)
                with
                | Some _ when Raft_sim.Raft_cluster.add_server cluster spare ->
                    spares := List.filter (fun u -> u <> spare) !spares;
                    pending_removal := Some members.(victim)
                | _ -> ())
            | _ -> ())
        | _, _ -> ())
  in
  let time = ref review_interval in
  while !time < horizon do
    ignore (Dessim.Engine.schedule_at engine ~time:!time review);
    time := !time +. review_interval
  done;
  Raft_sim.Raft_cluster.run cluster ~until:horizon;
  evaluate_outcome cluster ~commands ~crashed ~swaps:!swaps ~reviews:!reviews

let run_unmanaged ?(seed = 5) ~universe ~initial_members ~horizon ~commands () =
  let cluster, crashed = setup ~seed ~universe ~initial_members ~horizon ~commands in
  Raft_sim.Raft_cluster.run cluster ~until:horizon;
  evaluate_outcome cluster ~commands ~crashed ~swaps:0 ~reviews:0
