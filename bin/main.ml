(* probcons: probabilistic consensus reliability CLI.

   Subcommands map one-to-one onto the library's entry points so every
   analysis in the paper is reproducible from the shell. *)

open Cmdliner

let version = "1.1.0"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("probcons: " ^ msg);
      exit 2)
    fmt

(* Write a JSON artifact to [path], when one was asked for. *)
let write_artifact ~what path json =
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Obs.Json.to_string json);
          output_char oc '\n');
      Format.printf "%s written to %s@." what path)
    path

(* Every subcommand gets [--version], reporting the package version
   (the wire-protocol version travels with it via [probcons version]). *)
let cmd_info name ~doc = Cmd.info name ~version ~doc

(* --- Shared arguments --------------------------------------------- *)

let n_arg =
  Arg.(value & opt int 3 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")

let p_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "p"; "fault-probability" ] ~docv:"P"
        ~doc:"Per-node fault probability in [0,1].")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let target_nines_arg =
  Arg.(
    value
    & opt float 4.
    & info [ "target-nines" ] ~docv:"K" ~doc:"Reliability target as nines.")

(* --- Metrics ------------------------------------------------------- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable run telemetry: after the command finishes, print a metrics \
           summary and write the snapshot as JSON lines to $(docv).")

(* Command bodies are delayed (they take a trailing [()]), so the
   registry can be enabled before any instrumented code runs —
   cmdliner evaluates applied terms eagerly. *)
let with_metrics term =
  let wrap metrics thunk =
    if metrics <> None then Obs.Metrics.set_enabled true;
    thunk ();
    match metrics with
    | None -> ()
    | Some path ->
        let snap = Obs.Metrics.snapshot () in
        print_newline ();
        Probcons.Report.print ~title:"Run metrics"
          (Probcons.Report.metrics_table snap);
        Obs.Metrics.write_jsonl ~path snap;
        Format.printf "metrics snapshot written to %s@." path
  in
  Term.(const wrap $ metrics_arg $ term)

(* --- analyze ------------------------------------------------------- *)

let protocol_conv =
  Arg.enum [ ("raft", `Raft); ("pbft", `Pbft) ]

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv `Raft
    & info [ "protocol" ] ~docv:"PROTO" ~doc:"Protocol model: raft or pbft.")

let mix_arg =
  Arg.(
    value
    & opt (list ~sep:',' (pair ~sep:'x' int float)) []
    & info [ "mix" ] ~docv:"K1xP1,K2xP2,..."
        ~doc:
          "Heterogeneous fleet: comma-separated groups, each COUNTxPROB (e.g. \
           4x0.08,3x0.01). Overrides --n/--p.")

(* --- Scenario-driven commands -------------------------------------- *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die "%s" msg

let read_scenario_file path =
  match Probcons.Scenario.of_string (read_file path) with
  | Ok s -> s
  | Error msg -> die "%s: %s" path msg

let scenario_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Read the deployment scenario from $(docv) — the canonical JSON \
           form shared with the wire protocol. Overrides the flag-built \
           scenario.")

let proto_name_arg =
  Arg.(
    value
    & opt string "raft"
    & info [ "protocol" ] ~docv:"PROTO"
        ~doc:
          (Printf.sprintf "Protocol model: one of %s (see $(b,protocols))."
             (String.concat ", " (Probcons.Registry.names ()))))

let analyze_cmd =
  let byz_fraction_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "byz-fraction" ] ~docv:"F"
          ~doc:
            "Fraction of each node's fault probability that is Byzantine \
             rather than crash (default: the protocol's registry default).")
  in
  let quorum_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string int) []
      & info [ "quorum" ] ~docv:"KEY=SIZE"
          ~doc:
            "Quorum override, repeatable (e.g. --quorum q_vc=4 for raft, \
             --quorum u=2 --quorum r=1 for upright).")
  in
  let seed_opt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for Monte-Carlo engines.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the canonical JSON payload — byte-identical to the query \
             service's reply for the same scenario.")
  in
  let exact_arg =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Force exact 2^N subset enumeration instead of the automatic \
             DP/convolution selection (tops out around N=24; the \
             cross-validation override for the fast paths).")
  in
  let horizon_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "horizon" ] ~docv:"HOURS"
          ~doc:
            "Analyze the availability trajectory over $(docv) of mission \
             time instead of a single instant — the view that makes \
             time-varying failure processes (curves, Markov on/off) \
             visible. Renders the canonical trajectory payload with \
             $(b,--json).")
  in
  let rounds_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            (Printf.sprintf
               "Trajectory resolution: evaluate $(docv) evenly spaced rounds \
                across --horizon (default %d, max %d)."
               Probcons.Scenario.default_rounds Probcons.Scenario.max_rounds))
  in
  let run proto n p mix byz_fraction quorums seed scenario_file horizon rounds
      json exact () =
    let scenario =
      match scenario_file with
      | Some path -> read_scenario_file path
      | None -> (
          let mix = if mix = [] then [ (n, p) ] else mix in
          match
            Probcons.Scenario.make ?byz_fraction ~quorums ?seed ~protocol:proto
              ~mix ()
          with
          | Ok s -> s
          | Error msg -> die "%s" msg)
    in
    let scenario =
      match horizon with
      | Some h -> Probcons.Scenario.with_horizon ?rounds h scenario
      | None when rounds <> None && Probcons.Scenario.horizon scenario = None ->
          die "--rounds only makes sense with --horizon"
      | None -> scenario
    in
    let strategy =
      if exact then Some Probcons.Analysis.Enumeration else None
    in
    if json then
      match Probcons.Registry.analyze_json ?strategy scenario with
      | Ok payload -> print_endline (Obs.Json.to_string payload)
      | Error msg -> die "%s" msg
    else
      match Probcons.Scenario.horizon scenario with
      | Some h -> (
          match Probcons.Registry.analyze_horizon ?strategy scenario with
          | Error msg -> die "%s" msg
          | Ok points ->
              Format.printf "trajectory over %g hours (%d rounds):@." h
                (List.length points);
              Format.printf "  %10s  %12s  %12s  %12s@." "at (h)" "p_safe"
                "p_live" "p_safe_live";
              List.iter
                (fun { Probcons.Analysis.at; result } ->
                  Format.printf "  %10.1f  %12.9f  %12.9f  %12.9f@." at
                    result.Probcons.Analysis.p_safe
                    result.Probcons.Analysis.p_live
                    result.Probcons.Analysis.p_safe_live)
                points;
              let min_p_live =
                List.fold_left
                  (fun acc { Probcons.Analysis.result; _ } ->
                    Float.min acc result.Probcons.Analysis.p_live)
                  1. points
              in
              Format.printf "min p_live: %.9f (%.2f nines)@." min_p_live
                (Prob.Nines.of_prob min_p_live))
      | None -> (
          match Probcons.Registry.analyze ?strategy scenario with
          | Error msg -> die "%s" msg
          | Ok result ->
              Format.printf "%a@." Probcons.Analysis.pp_result result;
              Format.printf "nines: safe %.2f, live %.2f, safe&live %.2f@."
                (Prob.Nines.of_prob result.Probcons.Analysis.p_safe)
                (Prob.Nines.of_prob result.Probcons.Analysis.p_live)
                (Prob.Nines.of_prob result.Probcons.Analysis.p_safe_live))
  in
  let term =
    with_metrics
      Term.(
        const run $ proto_name_arg $ n_arg $ p_arg $ mix_arg $ byz_fraction_arg
        $ quorum_arg $ seed_opt_arg $ scenario_file_arg $ horizon_arg
        $ rounds_arg $ json_arg $ exact_arg)
  in
  Cmd.v
    (cmd_info "analyze"
       ~doc:
         "Probabilistic safety/liveness of any registered protocol \
          deployment.")
    term

(* --- protocols ------------------------------------------------------ *)

let protocols_cmd =
  let names_arg =
    Arg.(
      value & flag
      & info [ "names" ]
          ~doc:"Print one bare protocol name per line (for scripts).")
  in
  let run names_only () =
    if names_only then List.iter print_endline (Probcons.Registry.names ())
    else begin
      let t =
        Probcons.Report.create
          ~header:[ "name"; "byz-default"; "max-n"; "quorum keys"; "description" ]
      in
      List.iter
        (fun (e : Probcons.Registry.entry) ->
          Probcons.Report.add_row t
            [
              e.name;
              Printf.sprintf "%g" e.default_byz_fraction;
              string_of_int e.max_nodes;
              (match e.quorum_keys with
              | [] -> "-"
              | keys -> String.concat "," keys);
              e.doc;
            ])
        (Probcons.Registry.all ());
      Probcons.Report.print ~title:"Protocol registry" t
    end
  in
  Cmd.v
    (cmd_info "protocols"
       ~doc:"List the protocol registry: every model analyze/serve answer for.")
    (with_metrics Term.(const run $ names_arg))

(* --- tables --------------------------------------------------------- *)

let tables_cmd =
  let run () =
    Probcons.Report.print ~title:"Table 1: PBFT reliability, uniform p_u = 1%"
      (Probcons.Sweep.table1 ());
    print_newline ();
    Probcons.Report.print ~title:"Table 2: Raft reliability for uniform node failure"
      (Probcons.Sweep.table2 ())
  in
  Cmd.v (cmd_info "tables" ~doc:"Reproduce the paper's Tables 1 and 2.")
    (with_metrics (Term.const run))

(* --- optimize ------------------------------------------------------- *)

let optimize_cmd =
  let run target_nines () =
    let target = Prob.Nines.to_prob target_nines in
    Format.printf "target: %s safe-and-live@." (Prob.Nines.percent_string target);
    List.iter
      (fun machine ->
        match Costmodel.Optimizer.min_cluster machine ~target () with
        | Some d -> Format.printf "  %a@." Costmodel.Optimizer.pp_deployment d
        | None ->
            Format.printf "  %s: target unreachable@." machine.Costmodel.Machine.name)
      Costmodel.Machine.default_catalog;
    match Costmodel.Optimizer.optimize ~target () with
    | Some d -> Format.printf "cheapest: %a@." Costmodel.Optimizer.pp_deployment d
    | None -> Format.printf "no deployment meets the target@."
  in
  Cmd.v
    (cmd_info "optimize" ~doc:"Min-cost deployment for a reliability target.")
    (with_metrics Term.(const run $ target_nines_arg))

(* --- markov --------------------------------------------------------- *)

let markov_cmd =
  let afr_arg =
    Arg.(value & opt float 0.04 & info [ "afr" ] ~docv:"AFR" ~doc:"Annual failure rate.")
  in
  let mttr_arg =
    Arg.(value & opt float 24. & info [ "mttr" ] ~docv:"H" ~doc:"Node repair time, hours.")
  in
  let run n afr mttr () =
    let quorum = (n / 2) + 1 in
    let spec = Markov.Repair_model.of_afr ~n ~quorum ~afr ~mttr_hours:mttr in
    Format.printf "n=%d quorum=%d afr=%g mttr=%gh@." n quorum afr mttr;
    Format.printf "  MTTF  (quorum loss): %.4g h@." (Markov.Repair_model.mttf spec);
    Format.printf "  MTBF:                %.4g h@." (Markov.Repair_model.mtbf spec);
    Format.printf "  MTTDL (data loss):   %.4g h@." (Markov.Repair_model.mttdl spec);
    Format.printf "  availability:        %s@."
      (Prob.Nines.percent_string (Markov.Repair_model.availability spec))
  in
  Cmd.v
    (cmd_info "markov" ~doc:"Storage-style MTTF/MTTDL/availability of a cluster.")
    (with_metrics Term.(const run $ n_arg $ afr_arg $ mttr_arg))

(* --- simulate ------------------------------------------------------- *)

let simulate_cmd =
  let crash_arg =
    Arg.(
      value & opt (list int) []
      & info [ "crash" ] ~docv:"IDS" ~doc:"Nodes to crash at t=0.")
  in
  let byz_arg =
    Arg.(
      value & opt (list int) []
      & info [ "byzantine" ] ~docv:"IDS"
          ~doc:"Nodes made Byzantine at t=0 (pbft only).")
  in
  let commands_arg =
    Arg.(value & opt int 10 & info [ "commands" ] ~docv:"K" ~doc:"Client commands.")
  in
  let run proto n seed crash byz commands_count () =
    let commands = List.init commands_count (fun i -> 1000 + i) in
    let all = List.init n Fun.id in
    let failed = crash @ byz in
    let correct = List.filter (fun i -> not (List.mem i failed)) all in
    match proto with
    | `Raft ->
        if byz <> [] then Format.printf "note: Raft is CFT; --byzantine ignored@.";
        let cluster = Raft_sim.Raft_cluster.create ~n ~seed () in
        Raft_sim.Raft_cluster.inject cluster
          (Dessim.Fault_injector.of_failed_nodes crash);
        Raft_sim.Raft_cluster.submit_workload cluster ~commands ~start:500.
          ~interval:100.;
        Raft_sim.Raft_cluster.run cluster ~until:60_000.;
        let report = Raft_sim.Raft_checker.check cluster ~expected:commands ~correct in
        Format.printf "%a@." Raft_sim.Raft_checker.pp_report report
    | `Pbft ->
        let cluster = Pbft_sim.Pbft_cluster.create ~n ~seed () in
        Pbft_sim.Pbft_cluster.inject cluster
          (Dessim.Fault_injector.of_failed_nodes crash
          @ Dessim.Fault_injector.of_failed_nodes ~byzantine:true byz);
        Pbft_sim.Pbft_cluster.submit_workload cluster ~commands ~start:500.
          ~interval:100.;
        Pbft_sim.Pbft_cluster.run cluster ~until:60_000.;
        let honest = List.filter (fun i -> not (List.mem i byz)) all in
        let report =
          Pbft_sim.Pbft_checker.check cluster ~expected:commands ~correct ~honest
        in
        Format.printf "%a@." Pbft_sim.Pbft_checker.pp_report report
  in
  Cmd.v
    (cmd_info "simulate"
       ~doc:"Execute a Raft or PBFT cluster under fault injection and check it.")
    (with_metrics
       Term.(
         const run $ protocol_arg $ n_arg $ seed_arg $ crash_arg $ byz_arg
         $ commands_arg))

(* --- committee ------------------------------------------------------ *)

let committee_cmd =
  let run target_nines seed () =
    let target = Prob.Nines.to_prob target_nines in
    let fleet = Faultmodel.Fleet.mixed [ (4, 0.005); (10, 0.02); (6, 0.08) ] in
    Format.printf "fleet: 4 at p=0.5%%, 10 at p=2%%, 6 at p=8%%; target %s@."
      (Prob.Nines.percent_string target);
    (match Probcons.Committee.reliability_ranked ~target fleet with
    | Some c ->
        Format.printf "ranked committee: %d members -> %s@." (List.length c.members)
          (Prob.Nines.percent_string c.p_safe_live)
    | None -> Format.printf "no ranked committee meets the target@.");
    let rng = Prob.Rng.create seed in
    match Probcons.Committee.random_committee_size rng ~target fleet with
    | Some size -> Format.printf "random committee size: %d@." size
    | None -> Format.printf "random committees cannot meet the target@."
  in
  Cmd.v
    (cmd_info "committee" ~doc:"Committee sampling for a reliability target.")
    (with_metrics Term.(const run $ target_nines_arg $ seed_arg))

(* --- benor ----------------------------------------------------------- *)

let benor_cmd =
  let coin_arg =
    Arg.(
      value & opt (some int) None
      & info [ "common-coin" ] ~docv:"SEED"
          ~doc:"Use a shared per-round coin with this seed (O(1) expected rounds).")
  in
  let run n seed common_coin () =
    let initial = List.init n (fun i -> i mod 2) in
    let cluster =
      Benor_sim.Benor_cluster.create ~seed ?common_coin ~initial_values:initial ()
    in
    Benor_sim.Benor_cluster.run cluster ~until:1e7;
    let report = Benor_sim.Benor_cluster.check cluster ~correct:(List.init n Fun.id) in
    Format.printf "agreement=%b validity=%b all-decided=%b rounds=%d@."
      report.Benor_sim.Benor_cluster.agreement_ok report.Benor_sim.Benor_cluster.validity_ok
      report.Benor_sim.Benor_cluster.all_correct_decided
      report.Benor_sim.Benor_cluster.max_round;
    List.iter
      (fun (node, decision) ->
        Format.printf "  node %d: %s@." node
          (match decision with Some v -> string_of_int v | None -> "undecided"))
      report.Benor_sim.Benor_cluster.decisions
  in
  Cmd.v
    (cmd_info "benor" ~doc:"Run Ben-Or randomized consensus with split inputs.")
    (with_metrics Term.(const run $ n_arg $ seed_arg $ coin_arg))

(* --- mixed ----------------------------------------------------------- *)

let mixed_cmd =
  let byz_fraction_arg =
    Arg.(
      value & opt float 0.0025
      & info [ "byz-fraction" ] ~docv:"F" ~doc:"Fraction of faults that are Byzantine.")
  in
  let run n p byz_fraction () =
    let fleet = Faultmodel.Fleet.uniform ~byz_fraction ~n ~p () in
    Format.printf "n=%d, fault probability %g, Byzantine fraction %g:@." n p byz_fraction;
    List.iter
      (fun (name, r) ->
        Format.printf "  %-8s safe %-14s live %-12s safe&live %s@." name
          (Prob.Nines.percent_string r.Probcons.Analysis.p_safe)
          (Prob.Nines.percent_string r.Probcons.Analysis.p_live)
          (Prob.Nines.percent_string r.Probcons.Analysis.p_safe_live))
      (Probcons.Upright_model.compare_with_classics fleet)
  in
  Cmd.v
    (cmd_info "mixed"
       ~doc:"Compare Raft, PBFT and dual-threshold Upright under mixed faults.")
    (with_metrics Term.(const run $ n_arg $ p_arg $ byz_fraction_arg))

(* --- endtoend --------------------------------------------------------- *)

let endtoend_cmd =
  let afr_arg =
    Arg.(value & opt float 0.04 & info [ "afr" ] ~docv:"AFR" ~doc:"Annual failure rate.")
  in
  let failover_arg =
    Arg.(
      value & opt float 0.01
      & info [ "failover-hours" ] ~docv:"H" ~doc:"Recovery time per leader failure.")
  in
  let mission_arg =
    Arg.(
      value & opt float 87660.
      & info [ "mission-hours" ] ~docv:"H" ~doc:"Mission duration (default 10 years).")
  in
  let run n afr failover_hours mission_hours () =
    let quorum = (n / 2) + 1 in
    let spec = Markov.Repair_model.of_afr ~n ~quorum ~afr ~mttr_hours:24. in
    let t = Probcons.End_to_end.evaluate ~spec ~failover_hours ~mission_hours in
    Format.printf "%a@." Probcons.End_to_end.pp t;
    match Probcons.End_to_end.required_failover_hours ~spec ~availability_nines:5. with
    | Some budget -> Format.printf "failover budget for 5 nines: %.2f h/incident@." budget
    | None -> Format.printf "five nines of availability are unattainable@."
  in
  Cmd.v
    (cmd_info "endtoend" ~doc:"End-to-end availability/durability SLO evaluation.")
    (with_metrics Term.(const run $ n_arg $ afr_arg $ failover_arg $ mission_arg))

(* --- bounds ------------------------------------------------------------ *)

let bounds_cmd =
  let k_arg =
    Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Tail threshold: P(X >= K).")
  in
  let run n p k () =
    let c = Prob.Bounds.compare_tail ~n ~p ~k in
    Format.printf "P(X >= %d), X ~ Binomial(%d, %g):@." k n p;
    Format.printf "  exact       %.3e@." c.Prob.Bounds.exact;
    Format.printf "  chernoff-KL %.3e (%.1fx pessimistic)@." c.Prob.Bounds.chernoff
      c.Prob.Bounds.chernoff_ratio;
    Format.printf "  hoeffding   %.3e (%.1fx pessimistic)@." c.Prob.Bounds.hoeffding
      c.Prob.Bounds.hoeffding_ratio
  in
  Cmd.v
    (cmd_info "bounds" ~doc:"Exact binomial tail vs Chernoff/Hoeffding bounds.")
    (with_metrics Term.(const run $ n_arg $ p_arg $ k_arg))

(* --- sweep ------------------------------------------------------------- *)

let sweep_cmd =
  let kind_conv =
    Arg.enum
      [ ("raft", `Raft); ("pbft", `Pbft); ("pbft-detail", `Pbft_detail);
        ("frontier", `Frontier) ]
  in
  let kind_arg =
    Arg.(
      value & opt kind_conv `Raft
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Grid: raft, pbft, pbft-detail (safety/liveness/forensics), frontier.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an aligned table.")
  in
  let run kind csv scenario_file () =
    let ns = [ 3; 5; 7; 9; 11 ] and ps = [ 0.005; 0.01; 0.02; 0.04; 0.08 ] in
    let table =
      match scenario_file with
      | Some path ->
          (* Sweep any registered protocol: the file fixes the base
             scenario (protocol, overrides, byz split); the grid axes
             rewrite the fleet, so every cell is a registry analysis
             of a transformed scenario. *)
          let base = read_scenario_file path in
          Probcons.Sweep.scenario_grid ~row_label:"N" ~base
            ~rows:
              (List.map
                 (fun n ->
                   (string_of_int n, Probcons.Scenario.with_mix [ (n, 0.01) ]))
                 ns)
            ~cols:
              (List.map
                 (fun p ->
                   (Printf.sprintf "p=%g" p, Probcons.Scenario.with_p p))
                 ps)
            ()
      | None -> (
          match kind with
          | `Raft -> Probcons.Sweep.raft_grid ~ns ~ps ()
          | `Pbft -> Probcons.Sweep.pbft_grid ~ns:[ 4; 5; 7; 8; 10 ] ~ps ()
          | `Pbft_detail ->
              Probcons.Sweep.pbft_safety_liveness_grid ~ns:[ 4; 5; 7; 8; 10 ]
                ~p:0.01 ()
          | `Frontier ->
              Probcons.Sweep.min_cluster_frontier
                ~targets:(List.map Prob.Nines.to_prob [ 2.; 3.; 4.; 5. ])
                ~ps ())
    in
    print_string
      (if csv then Probcons.Report.to_csv table else Probcons.Report.render table)
  in
  Cmd.v
    (cmd_info "sweep" ~doc:"Reliability grids across cluster sizes and fault rates.")
    (with_metrics Term.(const run $ kind_arg $ csv_arg $ scenario_file_arg))

(* --- plan -------------------------------------------------------------- *)

let plan_cmd =
  let run target_nines mix seed scenario_file () =
    (* The fleet description funnels through the scenario validator —
       the same bounds as analyze and the wire. *)
    let mix, seed =
      match scenario_file with
      | Some path ->
          let s = read_scenario_file path in
          ( Probcons.Scenario.mix s,
            Option.value (Probcons.Scenario.seed s) ~default:seed )
      | None -> (
          let mix =
            if mix = [] then [ (3, 0.001); (8, 0.02); (5, 0.10) ] else mix
          in
          match Probcons.Scenario.validate_mix mix with
          | Ok () -> (mix, seed)
          | Error msg -> die "%s" msg)
    in
    let fleet = Faultmodel.Fleet.mixed mix in
    let target = Prob.Nines.to_prob target_nines in
    match Probnative.Planner.plan ~target fleet with
    | Some plan ->
        Format.printf "%a@." Probnative.Planner.pp_plan plan;
        let e = Probnative.Planner.execute ~seed fleet plan in
        Format.printf "execution: safe=%b live=%b preferred-leader=%b@."
          e.Probnative.Planner.safe e.Probnative.Planner.live
          e.Probnative.Planner.leader_was_most_reliable
    | None -> Format.printf "no committee of this fleet meets the target@."
  in
  Cmd.v
    (cmd_info "plan"
       ~doc:
         "Plan a probability-native deployment (committee, quorums, leader order) \
          and execute it once on the simulator.")
    (with_metrics
       Term.(const run $ target_nines_arg $ mix_arg $ seed_arg $ scenario_file_arg))

(* --- serve / call / loadgen / version ---------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1.")

let serve_cmd =
  let workers_arg =
    Arg.(
      value
      & opt int (Parallel.Pool.default ())
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Service.Server.default_config.Service.Server.queue_depth
      & info [ "queue-depth" ] ~docv:"D"
          ~doc:"Bounded request queue; excess requests are answered 'overloaded'.")
  in
  let cache_arg =
    Arg.(
      value
      & opt int Service.Server.default_config.Service.Server.cache_capacity
      & info [ "cache-capacity" ] ~docv:"E" ~doc:"LRU reply-cache entries (0 disables).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt float Service.Server.default_config.Service.Server.deadline_seconds
      & info [ "deadline" ] ~docv:"S"
          ~doc:"Queue deadline in seconds; stale requests get 'deadline_exceeded'.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt float
          Service.Server.default_config.Service.Server.idle_timeout_seconds
      & info [ "idle-timeout" ] ~docv:"S"
          ~doc:
            "Close connections silent for $(docv) seconds (0 or negative \
             disables the timeout).")
  in
  let max_connections_arg =
    Arg.(
      value
      & opt int Service.Server.default_config.Service.Server.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Live-connection cap; excess accepts are answered 'overloaded'.")
  in
  let max_pipeline_arg =
    Arg.(
      value
      & opt int Service.Server.default_config.Service.Server.max_pipeline
      & info [ "max-pipeline" ] ~docv:"N"
          ~doc:
            "Outstanding requests allowed per connection before the reactor \
             stops reading it (backpressure, not an error).")
  in
  let run socket port workers queue_depth cache_capacity deadline idle_timeout
      max_connections max_pipeline () =
    if socket = None && port = None then begin
      prerr_endline "probcons serve: set --socket PATH and/or --port PORT";
      exit 2
    end;
    (match socket with
    | Some path -> Format.printf "listening on unix socket %s@." path
    | None -> ());
    (match port with
    | Some port -> Format.printf "listening on 127.0.0.1:%d@." port
    | None -> ());
    Format.printf "%s: %d workers, queue %d, cache %d, deadline %gs@."
      Service.Wire.protocol_name workers queue_depth cache_capacity deadline;
    Service.Server.run
      {
        Service.Server.socket_path = socket;
        tcp_port = port;
        workers;
        queue_depth;
        cache_capacity;
        deadline_seconds = deadline;
        idle_timeout_seconds = idle_timeout;
        max_connections;
        max_pipeline;
      }
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Serve reliability queries (wire/3 frames) over a Unix-domain \
          socket and/or loopback TCP until SIGINT/SIGTERM.")
    (with_metrics
       Term.(
         const run $ socket_arg $ port_arg $ workers_arg $ queue_arg $ cache_arg
         $ deadline_arg $ idle_timeout_arg $ max_connections_arg
         $ max_pipeline_arg))

let clients_arg =
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"C" ~doc:"Concurrent clients.")

let requests_arg default =
  Arg.(value & opt int default & info [ "requests" ] ~docv:"R" ~doc:"Requests per client.")

let distinct_arg =
  Arg.(
    value & opt int 8 & info [ "distinct" ] ~docv:"K" ~doc:"Distinct queries in the pool.")

let json_file_arg artifact =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:("Write the " ^ artifact ^ " to $(docv)."))

(* The client end of --socket/--port: the socket wins when both are set. *)
let client_target ~cmd socket port =
  match (socket, port) with
  | Some path, _ -> Service.Client.Unix_path path
  | None, Some port -> Service.Client.Tcp port
  | None, None ->
      prerr_endline ("probcons " ^ cmd ^ ": set --socket PATH or --port PORT");
      exit 2

let call_cmd =
  let body_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BODY"
          ~doc:"The request body, a JSON object; read from stdin when omitted.")
  in
  let run socket port body =
    let target = client_target ~cmd:"call" socket port in
    let body =
      String.trim (match body with Some b -> b | None -> In_channel.input_all stdin)
    in
    if body = "" || String.length body > Service.Frame.max_payload_bytes then
      die "call: a request body is 1..%d bytes" Service.Frame.max_payload_bytes;
    match
      let c = Service.Client.connect target in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () -> Service.Client.call_raw c body)
    with
    | Some reply -> print_endline reply
    | None | (exception _) ->
        (* Refused, reset mid-send or closed unanswered: no reply. *)
        prerr_endline "probcons call: no reply";
        exit 1
  in
  Cmd.v
    (cmd_info "call"
       ~doc:
         "Send one request body to a running server as a wire/3 frame and \
          print the reply body; exits 1 when no reply comes.")
    Term.(const run $ socket_arg $ port_arg $ body_arg)

let loadgen_pipeline_arg =
  Arg.(
    value & opt int 1
    & info [ "pipeline" ] ~docv:"N"
        ~doc:
          "Requests kept outstanding per connection (1 = one resilient call \
           at a time; >1 pipelines over the raw framing).")

let loadgen_duration_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "duration" ] ~docv:"S"
        ~doc:
          "Run for a measured window of $(docv) seconds (after the warmup) \
           instead of a fixed request count; --requests is then ignored.")

let loadgen_warmup_arg =
  Arg.(
    value & opt float 0.5
    & info [ "warmup" ] ~docv:"S"
        ~doc:
          "Unrecorded warmup seconds before the measured window (only with \
           --duration).")

let loadgen_cmd =
  let call_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Per-call deadline in seconds; calls past it count as 'timeout' \
             errors instead of blocking. Default: no deadline.")
  in
  let run socket port clients requests distinct deadline duration warmup
      pipeline json () =
    let target = client_target ~cmd:"loadgen" socket port in
    let r =
      Service.Loadgen.run ~clients ~requests ~distinct ?timeout:deadline
        ?duration ~warmup ~pipeline ~target ()
    in
    Service.Loadgen.print_report r;
    write_artifact ~what:"loadgen artifact" json (Service.Loadgen.to_json r);
    if r.Service.Loadgen.errors > 0 || r.Service.Loadgen.mismatches > 0 then
      exit 1
  in
  Cmd.v
    (cmd_info "loadgen"
       ~doc:
         "Generate closed-loop load against a running server (optionally \
          pipelined and duration-bounded) and report throughput, latency \
          percentiles and response byte-identity.")
    (with_metrics
       Term.(
         const run $ socket_arg $ port_arg $ clients_arg $ requests_arg 200
         $ distinct_arg $ call_deadline_arg $ loadgen_duration_arg
         $ loadgen_warmup_arg $ loadgen_pipeline_arg
         $ json_file_arg "probcons-loadgen/3 result artifact"))

(* --- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed of the fault plan.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Load the fault plan from a JSON file (e.g. the 'plan' object of \
             a failing run's artifact) instead of the default plan; \
             overrides --seed.")
  in
  let call_deadline_arg =
    Arg.(
      value & opt float 2.0
      & info [ "deadline" ] ~docv:"S" ~doc:"Per-call deadline in seconds.")
  in
  let read_plan path seed =
    match path with
    | None -> Service.Chaos.default_plan ~seed ()
    | Some file -> (
        match
          Result.bind (Obs.Json.of_string (read_file file)) Service.Chaos.plan_of_json
        with
        | Ok plan -> plan
        | Error msg ->
            Printf.eprintf "probcons chaos: bad plan file %s: %s\n" file msg;
            exit 2)
  in
  let run seed plan_file clients requests distinct deadline json () =
    let plan = read_plan plan_file seed in
    Format.printf "chaos soak: seed %d, %d clients x %d requests, %gs deadline@."
      plan.Service.Chaos.seed clients requests deadline;
    let r = Service.Soak.run ~plan ~clients ~requests ~distinct ~deadline in
    Service.Soak.print_report r;
    write_artifact ~what:"chaos artifact" json (Service.Soak.artifact r);
    match r.Service.Soak.failures with
    | [] ->
        Format.printf "chaos soak: PASS (every request ended in a byte-correct \
                       reply or a typed error)@."
    | failures ->
        List.iter (fun msg -> Printf.eprintf "chaos soak: FAIL: %s\n" msg) failures;
        exit 1
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:
         "Soak a server through the deterministic fault-injecting proxy and \
          check the resilience invariant: every request ends in a \
          byte-correct reply or a typed error within its deadline — never a \
          hang, a corrupted payload, or a leaked server thread.")
    (with_metrics
       Term.(
         const run $ seed_arg $ plan_arg $ clients_arg $ requests_arg 150
         $ distinct_arg $ call_deadline_arg
         $ json_file_arg "probcons-chaos/1 soak artifact"))

(* --- dst ----------------------------------------------------------------- *)

let dst_cmd =
  let system_arg =
    Arg.(
      value & opt string "sim"
      & info [ "system" ] ~docv:"SYSTEM"
          ~doc:
            "System under test: 'sim' (every simulator protocol), \
             'sim-raft', 'sim-pbft', 'sim-benor', 'sim-rabia', 'service' \
             (the live reactor behind the chaos proxy), 'fleet' (the fleet \
             controller) or 'replica' (the replicated log under kill \
             schedules).")
  in
  let episodes_arg =
    Arg.(
      value & opt int 20
      & info [ "episodes" ] ~docv:"E"
          ~doc:"Seeded episodes to run per system before declaring a pass.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Emit the first failing case as found, without minimizing it.")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:
            "Write the (shrunk) failing case as a probcons-repro/1 artifact \
             to $(docv); replay it with tools/replay.exe.")
  in
  let seeded_bug_arg =
    Arg.(
      value & flag
      & info [ "seeded-bug" ]
          ~doc:
            "Re-introduce the PR-5 'id: 0' error-attribution bug \
             (service system only) so the harness has a real violation \
             to find — the self-test of the whole find/shrink/replay \
             pipeline.")
  in
  let expect_fail_arg =
    Arg.(
      value & flag
      & info [ "expect-fail" ]
          ~doc:
            "Invert the exit status: succeed only if a violation is found \
             (and within the --max-shrunk-* bounds). CI uses this to prove \
             the harness actually detects seeded bugs.")
  in
  let max_shrunk_arg name what =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-shrunk-" ^ name ] ~docv:"K"
          ~doc:
            ("With --expect-fail: fail unless the shrunk case has at most \
              $(docv) " ^ what ^ "."))
  in
  let run system seed episodes no_shrink repro_path seeded_bug expect_fail
      max_faults max_ops () =
    match
      Dst.Registry.soak ~seeded_bug ~shrink:(not no_shrink)
        ~log:(fun msg -> Format.printf "dst: %s@." msg)
        system ~seed ~episodes
    with
    | Error msg -> die "%s" msg
    | Ok None ->
        if expect_fail then begin
          prerr_endline
            "probcons dst: FAIL: expected a violation, but every episode \
             passed";
          exit 1
        end;
        Format.printf "dst: no invariant violated@."
    | Ok (Some ({ Dst.Registry.repro; faults; ops } as finding)) ->
        Format.printf
          "dst: %s violated invariant '%s' (episode %d); shrunk %d -> %d \
           units (%d faults, %d ops) in %d attempts@."
          repro.Dst.Repro.system repro.Dst.Repro.invariant
          repro.Dst.Repro.episode repro.Dst.Repro.original_units
          repro.Dst.Repro.shrunk_units faults ops
          repro.Dst.Repro.shrink_attempts;
        Format.printf "dst: %s@." repro.Dst.Repro.detail;
        (match repro_path with
        | None -> ()
        | Some path ->
            Dst.Repro.write ~path repro;
            Format.printf "dst: repro artifact written to %s@." path);
        if not expect_fail then exit 1;
        match Dst.Registry.over_bounds ?max_faults ?max_ops finding with
        | [] -> Format.printf "dst: violation found and shrunk as expected@."
        | over ->
            List.iter (Printf.eprintf "probcons dst: FAIL: %s\n") over;
            exit 1
  in
  Cmd.v
    (cmd_info "dst"
       ~doc:
         "Deterministic-simulation soak: generate seeded episodes against a \
          simulator cluster or the live service stack, check invariants, \
          shrink the first failure to a minimal case, and emit a replayable \
          probcons-repro/1 artifact.")
    (with_metrics
       Term.(
         const run $ system_arg $ seed_arg $ episodes_arg $ no_shrink_arg
         $ repro_arg $ seeded_bug_arg $ expect_fail_arg
         $ max_shrunk_arg "faults" "faults" $ max_shrunk_arg "ops" "operations"))

(* --- fleet --------------------------------------------------------- *)

let fleet_cmd =
  let nodes_arg =
    Arg.(
      value & opt int 24
      & info [ "nodes" ] ~docv:"N" ~doc:"Fleet size (consensus nodes).")
  in
  let ticks_arg =
    Arg.(
      value & opt int 26
      & info [ "ticks" ] ~docv:"T" ~doc:"Telemetry ticks to run.")
  in
  let quorum_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "quorum" ] ~docv:"Q"
          ~doc:"Initial commit quorum (default: majority).")
  in
  let fleet_nines_arg =
    Arg.(
      value & opt float 3.
      & info [ "target-nines" ] ~docv:"K"
          ~doc:"Liveness target as nines of P(quorum live).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the canonical fleet payload — byte-identical to what the \
             server returns for the same parameters.")
  in
  let dynamic_arg =
    Arg.(
      value & flag
      & info [ "dynamic" ]
          ~doc:
            "Time-varying ground truth: the telemetry stream runs per-node \
             Markov degradation processes (nodes worsen and heal) and the \
             swap policy weighs estimates by their confidence intervals.")
  in
  let run nodes ticks seed quorum nines dynamic json () =
    if nodes <= 0 then die "fleet: --nodes must be positive";
    if ticks < 0 then die "fleet: --ticks must be non-negative";
    let cfg =
      Fleetctl.Controller.default_config ~seed ~ticks ~dynamic ~nodes ()
    in
    let cfg =
      {
        cfg with
        Fleetctl.Controller.quorum =
          (match quorum with
          | None -> cfg.Fleetctl.Controller.quorum
          | Some q ->
              if q < 1 || q > nodes then
                die "fleet: --quorum must be in [1, %d]" nodes
              else q);
        target_live = Prob.Nines.to_prob nines;
      }
    in
    let outcome = Fleetctl.Controller.run cfg in
    if json then
      print_endline (Obs.Json.to_string (Fleetctl.Controller.payload outcome))
    else Format.printf "%a@." Fleetctl.Controller.pp_outcome outcome
  in
  Cmd.v
    (cmd_info "fleet"
       ~doc:
         "Run the fleet controller: stream seeded synthetic telemetry, refit \
          per-node fault curves, count the fleet's failure distribution each \
          tick, and emit quorum-resize / preemptive-swap recommendations \
          whenever the liveness target slips.")
    (with_metrics
       Term.(
         const run $ nodes_arg $ ticks_arg $ seed_arg $ quorum_arg
         $ fleet_nines_arg $ dynamic_arg $ json_arg))

(* --- replicate / replica-node ------------------------------------------ *)

(* The hidden per-process entry point `replicate` execs for each
   replica: one Node serving until SIGTERM. Argument names mirror
   Replica.Node.config so the parent's child_argv is a transcription,
   not a translation. *)
let replica_node_cmd =
  let required_int name docv doc =
    Arg.(required & opt (some int) None & info [ name ] ~docv ~doc)
  in
  let id_arg = required_int "id" "I" "Replica id in 0..n-1."
  and replicas_arg = required_int "replicas" "N" "Deployment size."
  and base_port_arg = required_int "base-port" "P" "Raft-plane base port."
  and service_port_arg = required_int "service-port" "P" "Client-facing port." in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc:"Durable Raft state directory.")
  in
  let run id replicas base_port service_port seed state_dir () =
    let cfg =
      {
        (Replica.Node.default_config ~id ~n:replicas ~base_port ~service_port)
        with
        Replica.Node.seed;
        state_dir;
      }
    in
    let node = Replica.Node.start cfg in
    Format.printf "replica %d/%d: raft %d, service %d%s@." id replicas
      (Replica.Node.raft_port cfg id)
      service_port
      (match state_dir with Some d -> ", state " ^ d | None -> "");
    Service.Server.wait_for_signal ();
    Replica.Node.stop node
  in
  Cmd.v
    (cmd_info "replica-node"
       ~doc:
         "(internal) One replica process of a replicated deployment; \
          normally exec'd by $(b,probcons replicate).")
    (with_metrics
       Term.(
         const run $ id_arg $ replicas_arg $ base_port_arg $ service_port_arg
         $ seed_arg $ state_dir_arg))

let replicate_cmd =
  let replicas_arg =
    Arg.(
      value & opt int 3
      & info [ "replicas" ] ~docv:"N" ~doc:"Deployment size (1-9).")
  in
  let base_port_arg =
    Arg.(
      value & opt int 47100
      & info [ "base-port" ] ~docv:"P"
          ~doc:
            "Base of the deployment's port range: replica I's raft \
             listener at P+I, its service port at P+N+I.")
  in
  let duration_arg =
    Arg.(
      value & opt float 40.
      & info [ "duration" ] ~docv:"S" ~doc:"Measured wall-clock seconds.")
  in
  let window_arg =
    Arg.(
      value & opt float 5.
      & info [ "window" ] ~docv:"S" ~doc:"Measurement window seconds.")
  in
  let probes_arg =
    Arg.(
      value & opt int 6
      & info [ "probes" ] ~docv:"K"
          ~doc:"Probes per window (alternating put / plain get).")
  in
  let hours_arg =
    Arg.(
      value & opt float 0.125
      & info [ "hours-per-second" ] ~docv:"H"
          ~doc:"Mission hours elapsing per wall-clock second.")
  in
  let fail_rate_arg =
    Arg.(
      value & opt float 1.0
      & info [ "fail-rate" ] ~docv:"L"
          ~doc:"Markov per-hour failure rate for the kill schedule.")
  in
  let recover_rate_arg =
    Arg.(
      value & opt float 2.0
      & info [ "recover-rate" ] ~docv:"M"
          ~doc:"Markov per-hour recovery rate for the kill schedule.")
  in
  let static_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "static-p" ] ~docv:"P"
          ~doc:
            "Use a static failure process instead of the Markov rates \
             (kills without scheduled recovery).")
  in
  let measure_arg =
    Arg.(
      value & flag
      & info [ "measure" ]
          ~doc:
            "Run the availability experiment: kill/restart replicas on the \
             sampled schedule, probe in windows, compare measured \
             availability against the analytical prediction, and verify no \
             acknowledged write was lost. Without this flag the deployment \
             just serves until SIGINT.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.25
      & info [ "tolerance" ] ~docv:"E"
          ~doc:"Gate on |measured_mean - predicted_mean| (with --measure).")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Root for per-replica durable state and logs (default: a \
             fresh directory under the system temp dir).")
  in
  let run replicas base_port seed duration window probes hours_per_second
      fail_rate recover_rate static_p measure tolerance json state_dir () =
    if replicas < 1 || replicas > 9 then die "replicate: --replicas must be in 1..9";
    let process =
      match static_p with
      | Some p -> Faultmodel.Failure_process.static p
      | None -> (
          match
            Faultmodel.Failure_process.markov ~fail_rate ~recover_rate
          with
          | Ok p -> p
          | Error e -> die "replicate: %s" e)
    in
    let state_root =
      Option.value state_dir
        ~default:
          (Filename.concat (Filename.get_temp_dir_name ())
             (Printf.sprintf "probcons-replicate-%d" (Unix.getpid ())))
    in
    let child_argv ~id =
      [|
        Sys.executable_name; "replica-node";
        "--id"; string_of_int id;
        "--replicas"; string_of_int replicas;
        "--base-port"; string_of_int base_port;
        "--service-port";
        string_of_int (Replica.Driver.service_port ~base_port ~replicas id);
        "--seed"; string_of_int seed;
        "--state-dir"; Filename.concat state_root (string_of_int id);
      |]
    in
    let cfg =
      {
        Replica.Driver.replicas;
        base_port;
        seed;
        process;
        hours_per_second;
        duration_seconds = duration;
        window_seconds = window;
        probes_per_window = probes;
        tolerance;
        state_root;
        child_argv;
        log = (fun msg -> Format.eprintf "replicate: %s@." msg);
      }
    in
    if not measure then
      Replica.Driver.supervise cfg ~ready:(fun () ->
          Format.printf "%d replicas up; service ports %d-%d; Ctrl-C to stop@."
            replicas
            (Replica.Driver.service_port ~base_port ~replicas 0)
            (Replica.Driver.service_port ~base_port ~replicas (replicas - 1)))
    else
      match Replica.Driver.run cfg with
      | Error e -> die "replicate: %s" e
      | Ok artifact ->
          let num field =
            Option.bind (Obs.Json.member field artifact) Obs.Json.to_float
            |> Option.value ~default:Float.nan
          in
          Format.printf
            "measured %.4f vs predicted %.4f (abs error %.4f, tolerance %g)@."
            (num "measured_mean") (num "predicted_mean") (num "abs_error")
            tolerance;
          Format.printf "writes: %d acked, %d lost; %d kills, %d restarts@."
            (int_of_float (num "writes_acked"))
            (int_of_float (num "writes_lost"))
            (int_of_float (num "kills"))
            (int_of_float (num "restarts"));
          write_artifact ~what:"artifact" json artifact;
          if num "abs_error" > tolerance || num "writes_lost" > 0. then begin
            Format.printf "FAIL: outside tolerance or acked writes lost@.";
            exit 1
          end
  in
  Cmd.v
    (cmd_info "replicate"
       ~doc:
         "Serve reliability queries over a replicated deployment (each \
          replica an OS process sequencing writes through the in-repo Raft) \
          — and with $(b,--measure), kill replicas on a failure-process \
          schedule while comparing measured availability against the \
          analytical prediction.")
    (with_metrics
       Term.(
         const run $ replicas_arg $ base_port_arg $ seed_arg $ duration_arg
         $ window_arg $ probes_arg $ hours_arg $ fail_rate_arg
         $ recover_rate_arg $ static_arg $ measure_arg $ tolerance_arg
         $ json_file_arg "probcons-repl-avail/1 artifact" $ state_dir_arg))

let version_cmd =
  let run () =
    Format.printf "probcons %s@." version;
    Format.printf "wire protocol: %s (v%d)@." Service.Wire.protocol_name
      Service.Wire.protocol_version
  in
  Cmd.v
    (cmd_info "version" ~doc:"Print the package and wire-protocol versions.")
    Term.(const run $ const ())

let main_cmd =
  let doc = "probabilistic consensus reliability toolkit" in
  Cmd.group
    (Cmd.info "probcons" ~version ~doc)
    [
      analyze_cmd; protocols_cmd; tables_cmd; optimize_cmd; markov_cmd;
      simulate_cmd; committee_cmd; benor_cmd; mixed_cmd; endtoend_cmd;
      bounds_cmd; plan_cmd; sweep_cmd; serve_cmd; call_cmd; loadgen_cmd;
      chaos_cmd; dst_cmd; fleet_cmd; replicate_cmd;
      replica_node_cmd; version_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
