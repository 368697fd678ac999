let m_handled = Obs.Metrics.counter ~family:"service" "router_handled"

let fleet_of_groups ~byz_fraction groups =
  Faultmodel.Fleet.of_nodes
    (List.concat_map
       (fun (count, p) ->
         List.init count (fun _ ->
             Faultmodel.Node.make ~id:0 ~byz_fraction
               (Faultmodel.Fault_curve.constant p)))
       groups)

let nines p = ("nines", Obs.Json.number (Prob.Nines.of_prob p))


let availability ~system ~probs =
  let qs =
    match system with
    | Wire.Majority n -> Quorum.Quorum_system.majority n
    | Wire.Threshold { n; k } -> Quorum.Quorum_system.Threshold { n; k }
    | Wire.Wheel n -> Quorum.Quorum_system.wheel n
    | Wire.Grid { rows; cols } -> Quorum.Quorum_system.Grid { rows; cols }
  in
  let n = Quorum.Quorum_system.size qs in
  let probs =
    match probs with
    | Wire.Uniform p -> Array.make n p
    | Wire.Per_node ps -> Array.of_list ps
  in
  let a = Quorum.Quorum_system.availability qs probs in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int n);
      ("min_quorum", Obs.Json.Int (Quorum.Quorum_system.min_quorum_size qs));
      ("availability", Obs.Json.number a);
      nines a;
    ]

let committee ~target_nines ~groups =
  let fleet = fleet_of_groups ~byz_fraction:0.0 groups in
  let target = Prob.Nines.to_prob target_nines in
  match Probcons.Committee.reliability_ranked ~target fleet with
  | None -> Obs.Json.Obj [ ("found", Obs.Json.Bool false) ]
  | Some c ->
      Obs.Json.Obj
        [
          ("found", Obs.Json.Bool true);
          ("members", Obs.Json.List (List.map (fun i -> Obs.Json.Int i) c.members));
          ("q_per", Obs.Json.Int c.params.Probcons.Raft_model.q_per);
          ("q_vc", Obs.Json.Int c.params.Probcons.Raft_model.q_vc);
          ("p_safe_live", Obs.Json.number c.p_safe_live);
          nines c.p_safe_live;
        ]

let quorum_size ~target_live_nines ~groups =
  let fleet = fleet_of_groups ~byz_fraction:0.0 groups in
  let target_live = Prob.Nines.to_prob target_live_nines in
  match Probcons.Dynamic_quorum.best_raft ~target_live fleet with
  | None -> Obs.Json.Obj [ ("found", Obs.Json.Bool false) ]
  | Some c ->
      Obs.Json.Obj
        [
          ("found", Obs.Json.Bool true);
          ("n", Obs.Json.Int c.params.Probcons.Raft_model.n);
          ("q_per", Obs.Json.Int c.params.Probcons.Raft_model.q_per);
          ("q_vc", Obs.Json.Int c.params.Probcons.Raft_model.q_vc);
          ("p_live", Obs.Json.number c.p_live);
          ("p_safe_live", Obs.Json.number c.p_safe_live);
        ]

let markov ~n ~quorum ~afr ~mttr_hours =
  let quorum = match quorum with Some q -> q | None -> (n / 2) + 1 in
  let spec = Markov.Repair_model.of_afr ~n ~quorum ~afr ~mttr_hours in
  let a = Markov.Repair_model.availability spec in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int n);
      ("quorum", Obs.Json.Int quorum);
      ("mttf_hours", Obs.Json.number (Markov.Repair_model.mttf spec));
      ("mtbf_hours", Obs.Json.number (Markov.Repair_model.mtbf spec));
      ("mttdl_hours", Obs.Json.number (Markov.Repair_model.mttdl spec));
      ("availability", Obs.Json.number a);
      nines a;
    ]

let plan ~target_nines ~groups =
  let fleet = fleet_of_groups ~byz_fraction:0.0 groups in
  let target = Prob.Nines.to_prob target_nines in
  match Probnative.Planner.plan ~target fleet with
  | None -> Obs.Json.Obj [ ("found", Obs.Json.Bool false) ]
  | Some p ->
      Obs.Json.Obj
        [
          ("found", Obs.Json.Bool true);
          ( "committee",
            Obs.Json.List (List.map (fun i -> Obs.Json.Int i) p.committee) );
          ("q_per", Obs.Json.Int p.quorums.Probcons.Raft_model.q_per);
          ("q_vc", Obs.Json.Int p.quorums.Probcons.Raft_model.q_vc);
          ( "timeout_multipliers",
            Obs.Json.List
              (Array.to_list (Array.map Obs.Json.number p.timeout_multipliers)) );
          ("p_live", Obs.Json.number p.p_live);
          ("p_safe_live", Obs.Json.number p.p_safe_live);
          nines p.p_safe_live;
        ]

(* One config builder for both fleet kinds — and the same derivation
   the [probcons fleet] command uses, which is what makes the CLI's
   [--json] output and the served payload byte-identical. *)
let fleet_outcome (f : Wire.fleet_params) =
  let cfg =
    Fleetctl.Controller.default_config ~seed:f.Wire.seed ~ticks:f.Wire.ticks
      ~dynamic:f.Wire.dynamic ~nodes:f.Wire.nodes ()
  in
  let cfg =
    {
      cfg with
      Fleetctl.Controller.quorum =
        Option.value f.Wire.quorum ~default:cfg.Fleetctl.Controller.quorum;
      target_live = Prob.Nines.to_prob f.Wire.target_nines;
    }
  in
  Fleetctl.Controller.run cfg

let handle query =
  Obs.Metrics.incr m_handled;
  match query with
  | Wire.Stats -> Error (Wire.Internal, "stats is answered by the server")
  | Wire.Ping -> Error (Wire.Internal, "ping is answered by the server")
  | Wire.Scenario_put _ | Wire.Scenario_get _ | Wire.Replica_status ->
      (* Replica-plane queries need replicated state behind the server;
         a standalone [probcons serve] has none. A replica answers them
         on its server's loop, so they never reach a lane. *)
      Error
        ( Wire.Bad_request,
          "this server is not a replica (start one with probcons replicate)" )
  | Wire.Analyze { scenario } -> (
      (* Dispatch through the protocol registry: the model's own
         byz_fraction default (overridable per scenario), the model's
         own bounds, and the registry's single payload renderer — the
         same bytes [probcons analyze --json] prints. Wire already
         validated the scenario at parse time, so an [Error] here is
         what only running it finds (such as a weighted entry's
         search that meets no target), surfaced as [Bad_request]. *)
      match Probcons.Registry.analyze_json scenario with
      | Ok payload -> Ok payload
      | Error msg -> Error (Wire.Bad_request, msg)
      | exception e -> Error (Wire.Internal, Printexc.to_string e))
  | _ -> (
      match
        match query with
        | Wire.Analyze _ -> assert false
        | Wire.Availability { system; probs } -> availability ~system ~probs
        | Wire.Committee { target_nines; groups } -> committee ~target_nines ~groups
        | Wire.Quorum_size { target_live_nines; groups } ->
            quorum_size ~target_live_nines ~groups
        | Wire.Markov { n; quorum; afr; mttr_hours } ->
            markov ~n ~quorum ~afr ~mttr_hours
        | Wire.Plan { target_nines; groups } -> plan ~target_nines ~groups
        | Wire.Fleet_recommend f -> Fleetctl.Controller.payload (fleet_outcome f)
        | Wire.Fleet_ingest f ->
            Fleetctl.Controller.ingest_payload (fleet_outcome f)
        | Wire.Stats | Wire.Ping | Wire.Scenario_put _ | Wire.Scenario_get _
        | Wire.Replica_status ->
            assert false
      with
      | payload -> Ok payload
      | exception e -> Error (Wire.Internal, Printexc.to_string e))
