type config = {
  nodes : int;
  seed : int;
  ticks : int;
  quorum : int;
  target_live : float;
  at : float;
  replacement_afr : float;
  drift_bound : float;
  resize_max_nodes : int;
  verify : bool;
  dynamic : bool;
  stream : Stream.config;
}

let default_config ?(seed = 42) ?(ticks = 26) ?(dynamic = false) ~nodes () =
  {
    nodes;
    seed;
    ticks;
    quorum = (nodes / 2) + 1;
    target_live = 0.999;
    at = 8766.;
    replacement_afr = 0.02;
    drift_bound = Prob.Incremental.default_drift_bound;
    resize_max_nodes = 64;
    verify = nodes <= 256;
    dynamic;
    stream = Stream.default_config ~dynamic ~seed ~nodes ();
  }

type action =
  | Resize of { q_per : int; q_vc : int; predicted_live : float }
  | Swap of { node : int; estimate : float; predicted_live : float }

type recommendation = { tick : int; p_live : float; action : action }

type outcome = {
  config : config;
  recommendations : recommendation list;
  final_quorum : int;
  final_p_live : float;
  final_expected_failures : float;
  observations : int;
  failures_seen : int;
  device_hours : float;
  engine_updates : int;
  engine_refreshes : int;
  max_divergence : float;
}

(* --- metrics -------------------------------------------------------- *)

let m_update_seconds = Obs.Metrics.histogram ~family:"fleet" "update_seconds"
let m_ticks = Obs.Metrics.counter ~family:"fleet" "ticks"
let m_observations = Obs.Metrics.counter ~family:"fleet" "observations"
let m_refreshes = Obs.Metrics.counter ~family:"fleet" "refreshes"
let m_recommendations = Obs.Metrics.counter ~family:"fleet" "recommendations"

(* --- the loop ------------------------------------------------------- *)

let validate cfg =
  if cfg.nodes <= 0 then invalid_arg "Controller.run: nodes must be positive";
  if cfg.ticks < 0 then invalid_arg "Controller.run: negative tick count";
  if cfg.quorum < 1 || cfg.quorum > cfg.nodes then
    invalid_arg "Controller.run: quorum must be in [1, nodes]";
  if not (cfg.target_live > 0. && cfg.target_live < 1.) then
    invalid_arg "Controller.run: target_live must be in (0, 1)";
  if cfg.at <= 0. then invalid_arg "Controller.run: horizon must be positive";
  if cfg.replacement_afr <= 0. then
    invalid_arg "Controller.run: replacement_afr must be positive";
  if cfg.stream.Stream.nodes <> cfg.nodes then
    invalid_arg "Controller.run: stream fleet size mismatch"

let estimate_fleet estimates =
  Faultmodel.Fleet.of_nodes
    (Array.to_list
       (Array.mapi
          (fun id p ->
            Faultmodel.Node.make ~id (Faultmodel.Fault_curve.constant p))
          estimates))

(* Dynamic-mode swap ranking: the negated reliability-weighted score
   [(1 - estimate) / (1 + uncertainty)], so the riskiest node is the
   one with the lowest score — the same scoring
   {!Probnative.Committee.reliability_weighted} uses. A node that looks
   bad {e or} that we cannot trust ranks first; under time-varying
   ground truth a stale confident estimate is exactly as dangerous as a
   fresh bad one. *)
let weighted_risk estimates uncertainty =
  Array.mapi (fun i p -> -.((1. -. p) /. (1. +. uncertainty.(i)))) estimates

let run cfg =
  validate cfg;
  let stream = Stream.create cfg.stream in
  let prior =
    Faultmodel.Fault_curve.eval
      (Faultmodel.Fault_curve.of_afr cfg.replacement_afr)
      cfg.at
  in
  let replacement_p = prior in
  let estimates = Array.make cfg.nodes prior in
  (* 95%-CI half-width on each node's AFR from its latest observation;
     0.5 (maximal) until a node has reported. Only consulted by the
     dynamic-mode swap policy. *)
  let uncertainty = Array.make cfg.nodes 0.5 in
  let engine =
    Prob.Incremental.create ~drift_bound:cfg.drift_bound estimates
  in
  let quorum = ref cfg.quorum in
  let recommendations = ref [] in
  let observations = ref 0 in
  let failures_seen = ref 0 in
  let device_hours = ref 0. in
  let max_divergence = ref 0. in
  let p_live () = Prob.Incremental.cdf_le engine (cfg.nodes - !quorum) in
  let recommend tick live action =
    Obs.Metrics.incr m_recommendations;
    recommendations := { tick; p_live = live; action } :: !recommendations
  in
  for tick = 1 to cfg.ticks do
    Obs.Metrics.incr m_ticks;
    let events = Stream.tick stream in
    (* Refit every reporting node and fold the new estimates in as one
       O(n)-per-factor incremental batch. *)
    let updates =
      List.map
        (fun { Stream.node; observation } ->
          incr observations;
          Obs.Metrics.incr m_observations;
          failures_seen := !failures_seen + observation.Faultmodel.Telemetry.failures;
          device_hours :=
            !device_hours +. observation.Faultmodel.Telemetry.device_hours;
          let fitted = Faultmodel.Telemetry.fit_auto observation in
          let p = Faultmodel.Fault_curve.eval fitted cfg.at in
          estimates.(node) <- p;
          let lo, hi = Faultmodel.Telemetry.afr_confidence observation in
          uncertainty.(node) <- (hi -. lo) /. 2.;
          (node, p))
        events
    in
    let refreshes_before = Prob.Incremental.refresh_count engine in
    Obs.Span.time m_update_seconds (fun () ->
        Prob.Incremental.update_batch engine updates);
    Obs.Metrics.add m_refreshes
      (Prob.Incremental.refresh_count engine - refreshes_before);
    let live = p_live () in
    if live < cfg.target_live then begin
      (* First lever: a cheaper commit quorum from the structurally
         safe Flexible-Paxos family, if one meets the target. *)
      (if cfg.nodes <= cfg.resize_max_nodes then
         match
           Probnative.Dynamic_quorum.best_raft ~target_live:cfg.target_live
             (estimate_fleet estimates)
         with
         | Some choice when choice.Probnative.Dynamic_quorum.params.Probcons.Raft_model.q_per <> !quorum ->
             let params = choice.Probnative.Dynamic_quorum.params in
             recommend tick live
               (Resize
                  {
                    q_per = params.Probcons.Raft_model.q_per;
                    q_vc = params.Probcons.Raft_model.q_vc;
                    predicted_live = choice.Probnative.Dynamic_quorum.p_live;
                  });
             quorum := params.Probcons.Raft_model.q_per
         | _ -> ());
      (* Second lever: preemptively swap the riskiest node, by the §4
         swap rule on the engine itself. *)
      let risks =
        if cfg.dynamic then weighted_risk estimates uncertainty else estimates
      in
      Option.iter
        (fun victim ->
          match
            Probnative.Preemptive_reconfig.decide engine
              ~tolerated:(cfg.nodes - !quorum) ~target_live:cfg.target_live
              ~victim ~replacement:replacement_p
          with
          | None -> ()
          | Some { Probnative.Preemptive_reconfig.risk; live_before; live_after; _ } ->
              estimates.(victim) <- replacement_p;
              uncertainty.(victim) <- 0.;
              Stream.replace stream victim ~afr:cfg.replacement_afr;
              recommend tick live_before
                (Swap { node = victim; estimate = risk; predicted_live = live_after }))
        (Probnative.Preemptive_reconfig.riskiest risks)
    end;
    if cfg.verify then
      max_divergence :=
        Float.max !max_divergence
          (Prob.Incremental.sup_distance_from_scratch engine)
  done;
  {
    config = cfg;
    recommendations = List.rev !recommendations;
    final_quorum = !quorum;
    final_p_live = p_live ();
    final_expected_failures = Prob.Incremental.expectation engine;
    observations = !observations;
    failures_seen = !failures_seen;
    device_hours = !device_hours;
    engine_updates = Prob.Incremental.update_count engine;
    engine_refreshes = Prob.Incremental.refresh_count engine;
    max_divergence = !max_divergence;
  }

(* --- rendering ------------------------------------------------------ *)

let action_json = function
  | Resize { q_per; q_vc; predicted_live } ->
      [
        ("action", Obs.Json.String "resize");
        ("q_per", Obs.Json.Int q_per);
        ("q_vc", Obs.Json.Int q_vc);
        ("predicted_live", Obs.Json.number predicted_live);
      ]
  | Swap { node; estimate; predicted_live } ->
      [
        ("action", Obs.Json.String "swap");
        ("node", Obs.Json.Int node);
        ("estimate", Obs.Json.number estimate);
        ("predicted_live", Obs.Json.number predicted_live);
      ]

let recommendation_json r =
  Obs.Json.Obj
    (("tick", Obs.Json.Int r.tick)
    :: ("p_live", Obs.Json.number r.p_live)
    :: action_json r.action)

let base_fields o =
  (* [dynamic] is encoded only when true so every pre-existing payload
     byte stays identical. *)
  (if o.config.dynamic then [ ("dynamic", Obs.Json.Bool true) ] else [])
  @ [
    ("nodes", Obs.Json.Int o.config.nodes);
    ("seed", Obs.Json.Int o.config.seed);
    ("ticks", Obs.Json.Int o.config.ticks);
    ("observations", Obs.Json.Int o.observations);
    ("failures_seen", Obs.Json.Int o.failures_seen);
    ("device_hours", Obs.Json.number o.device_hours);
    ("engine_updates", Obs.Json.Int o.engine_updates);
    ("engine_refreshes", Obs.Json.Int o.engine_refreshes);
    ("max_divergence", Obs.Json.number o.max_divergence);
  ]

let payload o =
  Obs.Json.Obj
    (("subsystem", Obs.Json.String "fleet")
    :: base_fields o
    @ [
        ("quorum", Obs.Json.Int o.final_quorum);
        ("target_live", Obs.Json.number o.config.target_live);
        ("p_live", Obs.Json.number o.final_p_live);
        ("nines", Obs.Json.number (Prob.Nines.of_prob o.final_p_live));
        ("expected_failures", Obs.Json.number o.final_expected_failures);
        ( "recommendations",
          Obs.Json.List (List.map recommendation_json o.recommendations) );
      ])

let ingest_payload o =
  Obs.Json.Obj
    (("subsystem", Obs.Json.String "fleet_ingest")
    :: base_fields o
    @ [
        ("p_live", Obs.Json.number o.final_p_live);
        ("expected_failures", Obs.Json.number o.final_expected_failures);
      ])

let pp_action fmt = function
  | Resize { q_per; q_vc; predicted_live } ->
      Format.fprintf fmt "resize to q_per=%d q_vc=%d (predicted live %.6f)"
        q_per q_vc predicted_live
  | Swap { node; estimate; predicted_live } ->
      Format.fprintf fmt
        "swap node %d (estimate %.4f; predicted live %.6f)" node estimate
        predicted_live

let pp_outcome fmt o =
  Format.fprintf fmt
    "fleet: %d nodes, %d ticks, %d observations (%d device failures)@."
    o.config.nodes o.config.ticks o.observations o.failures_seen;
  Format.fprintf fmt
    "engine: %d incremental updates, %d refreshes, max divergence %.3e@."
    o.engine_updates o.engine_refreshes o.max_divergence;
  List.iter
    (fun r ->
      Format.fprintf fmt "tick %3d: p_live %.6f -> %a@." r.tick r.p_live
        pp_action r.action)
    o.recommendations;
  Format.fprintf fmt "final: quorum %d, p_live %.6f (%.2f nines), E[failures] %.3f"
    o.final_quorum o.final_p_live
    (Prob.Nines.of_prob o.final_p_live)
    o.final_expected_failures
