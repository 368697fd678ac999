module type Protocol_model = sig
  val name : string
  val doc : string
  val default_byz_fraction : float
  val max_nodes : int
  val quorum_keys : string list
  val protocol_of : Scenario.t -> (Protocol.t, string) result
  val validate : Scenario.t -> (unit, string) result
  val count_dp_cells : Scenario.t -> int option

  val analyze :
    ?domains:int ->
    ?strategy:Analysis.strategy ->
    Scenario.t ->
    (Analysis.result, string) result

  val analyze_horizon :
    ?domains:int ->
    ?strategy:Analysis.strategy ->
    Scenario.t ->
    (Analysis.horizon_point list, string) result
end

type entry = (module Protocol_model)

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let wrap f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let quorum_or s key default =
  match Scenario.quorum s key with Some v -> v | None -> default

(* Checks shared by every model: fleet bound, override keys known,
   stakes only where they mean something. Value-range checks live in
   the model constructors ([Invalid_argument] mapped to [Error]). *)
let check_common ~name ~max_nodes ~quorum_keys ?(stakes_ok = false) s =
  let n = Scenario.size s in
  if n > max_nodes then
    errf "%s supports at most %d nodes (got %d)" name max_nodes n
  else
    match
      List.find_opt
        (fun (key, _) -> not (List.mem key quorum_keys))
        (Scenario.quorums s)
    with
    | Some (key, _) ->
        errf "%s takes no quorum override %S%s" name key
          (if quorum_keys = [] then ""
           else Printf.sprintf " (allowed: %s)" (String.concat ", " quorum_keys))
    | None ->
        if (not stakes_ok) && Scenario.stakes s <> None then
          errf "stakes only apply to the stake protocol (got %s)" name
        else Ok ()

let analyze_predicate ~default_byz ?domains ?strategy s proto =
  let byz_fraction =
    Option.value (Scenario.byz_fraction s) ~default:default_byz
  in
  let fleet = Scenario.fleet ~byz_fraction s in
  wrap (fun () ->
      Analysis.run ?at:(Scenario.at s) ?seed:(Scenario.seed s) ?strategy
        ?domains proto fleet)

let horizon_spec s =
  match Scenario.horizon s with
  | Some h -> Ok (h, Option.value (Scenario.rounds s) ~default:Scenario.default_rounds)
  | None -> Error "scenario has no horizon"

let analyze_predicate_horizon ~default_byz ?domains ?strategy s proto =
  let* h, rounds = horizon_spec s in
  let byz_fraction =
    Option.value (Scenario.byz_fraction s) ~default:default_byz
  in
  let fleet = Scenario.fleet ~byz_fraction s in
  wrap (fun () ->
      Analysis.run_horizon ?strategy ?seed:(Scenario.seed s) ?domains
        ~times:(Analysis.horizon_times ~horizon:h ~rounds)
        proto fleet)

(* Builds a standard entry from its defaults plus a scenario-to-model
   function; the closed-over [protocol_of] already performs the
   model-specific parameter validation. A [counted] model's default
   strategy is one count-DP pass over the fleet and nothing costlier. *)
let model ~name ~doc ~byz ?(max_nodes = Scenario.max_fleet_nodes)
    ?(stakes_ok = false) ?(counted = false) ~quorum_keys ~protocol_of () :
    entry =
  (module struct
    let name = name
    let doc = doc
    let default_byz_fraction = byz
    let max_nodes = max_nodes
    let quorum_keys = quorum_keys

    let protocol_of s =
      let* () = check_common ~name ~max_nodes ~quorum_keys ~stakes_ok s in
      protocol_of s

    let validate s = Result.map ignore (protocol_of s)

    let count_dp_cells s =
      if counted && Scenario.horizon s = None then
        let f = Option.value (Scenario.byz_fraction s) ~default:byz in
        Some
          (Config.count_dp_cells ~n:(Scenario.size s) ~mixed:(f > 0. && f < 1.))
      else None

    let analyze ?domains ?strategy s =
      let* proto = protocol_of s in
      analyze_predicate ~default_byz:byz ?domains ?strategy s proto

    let analyze_horizon ?domains ?strategy s =
      let* proto = protocol_of s in
      analyze_predicate_horizon ~default_byz:byz ?domains ?strategy s proto
  end)

let raft =
  model ~name:"raft" ~doc:"Crash-fault Raft (Theorem 3.2)" ~byz:0.0
    ~counted:true ~quorum_keys:[ "q_per"; "q_vc" ]
    ~protocol_of:(fun s ->
      let n = Scenario.size s in
      wrap (fun () ->
          let d = Raft_model.default n in
          Raft_model.protocol
            (Raft_model.flexible ~n
               ~q_per:(quorum_or s "q_per" d.Raft_model.q_per)
               ~q_vc:(quorum_or s "q_vc" d.Raft_model.q_vc))))
    ()

let pbft_params s =
  let n = Scenario.size s in
  wrap (fun () ->
      let d = Pbft_model.default n in
      Pbft_model.make ~n
        ~q_eq:(quorum_or s "q_eq" d.Pbft_model.q_eq)
        ~q_per:(quorum_or s "q_per" d.Pbft_model.q_per)
        ~q_vc:(quorum_or s "q_vc" d.Pbft_model.q_vc)
        ~q_vc_t:(quorum_or s "q_vc_t" d.Pbft_model.q_vc_t))

let pbft_keys = [ "q_eq"; "q_per"; "q_vc"; "q_vc_t" ]

let pbft =
  model ~name:"pbft" ~doc:"Byzantine-fault PBFT (Theorem 3.1)" ~byz:1.0
    ~counted:true ~quorum_keys:pbft_keys
    ~protocol_of:(fun s -> Result.map Pbft_model.protocol (pbft_params s))
    ()

let pbft_forensics =
  model ~name:"pbft-forensics"
    ~doc:"PBFT counting safe-or-accountable as safe" ~byz:1.0 ~counted:true
    ~quorum_keys:pbft_keys
    ~protocol_of:(fun s ->
      Result.map Pbft_model.safe_or_accountable (pbft_params s))
    ()

let upright =
  (* The paper's mixed-fault setting: most faults crash, a sliver
     (mercurial cores, TEE compromises) is Byzantine. *)
  model ~name:"upright" ~doc:"Dual-threshold Upright (u total, r Byzantine)"
    ~byz:0.0025 ~counted:true
    ~quorum_keys:[ "u"; "r" ]
    ~protocol_of:(fun s ->
      let n = Scenario.size s in
      wrap (fun () ->
          let r = quorum_or s "r" (if n >= 4 then 1 else 0) in
          let u =
            quorum_or s "u" (Upright_model.max_params ~n ~r).Upright_model.u
          in
          Upright_model.protocol (Upright_model.make ~n ~u ~r)))
    ()

let benor =
  model ~name:"benor" ~doc:"Crash-fault Ben-Or randomized consensus" ~byz:0.0
    ~counted:true ~quorum_keys:[ "f" ]
    ~protocol_of:(fun s ->
      let n = Scenario.size s in
      wrap (fun () ->
          Benor_model.protocol
            (Benor_model.make ~n ~f:(quorum_or s "f" ((n - 1) / 2)))))
    ()

let stake =
  (* Identity-dependent predicate: exact enumeration, so the fleet is
     capped where 2^n stays interactive. *)
  model ~name:"stake" ~doc:"Stake-weighted thresholds (enumeration path)"
    ~byz:1.0 ~max_nodes:22 ~stakes_ok:true ~quorum_keys:[]
    ~protocol_of:(fun s ->
      let n = Scenario.size s in
      let stakes =
        match Scenario.stakes s with
        | Some l -> l
        | None -> List.init n (fun _ -> 1.0)
      in
      if List.length stakes <> n then
        errf "stakes has %d entries for a %d-node fleet" (List.length stakes) n
      else
        wrap (fun () ->
            Stake_model.protocol (Stake_model.make (Array.of_list stakes))))
    ()

let quorum_availability : entry =
  (module struct
    let name = "quorum-availability"
    let doc = "Availability of a k-of-n threshold quorum system"
    let default_byz_fraction = 0.0
    let max_nodes = Scenario.max_fleet_nodes
    let quorum_keys = [ "quorum" ]
    let protocol_of _ = Error "quorum-availability has no predicate form"

    let check s =
      let* () = check_common ~name ~max_nodes ~quorum_keys s in
      let n = Scenario.size s in
      let k = quorum_or s "quorum" ((n / 2) + 1) in
      if k < 1 || k > n then errf "quorum must be in [1, %d]" n else Ok (n, k)

    let validate s = Result.map ignore (check s)
    let count_dp_cells _ = None

    let result_at ?domains ?strategy ~n ~k fleet at =
      let probs =
        match at with
        | None -> Faultmodel.Fleet.fault_probs fleet
        | Some at -> Faultmodel.Fleet.fault_probs ~at fleet
      in
      (* Enumeration strategy maps to the exact-override path; every
         other strategy keeps the count DP. *)
      let exact = strategy = Some Analysis.Enumeration in
      let a =
        Quorum.Quorum_system.availability ?domains ~exact
          (Quorum.Quorum_system.Threshold { n; k })
          probs
      in
      {
        Analysis.protocol = Printf.sprintf "threshold(n=%d,k=%d)" n k;
        p_safe = 1.0;
        p_live = a;
        p_safe_live = a;
        engine = "quorum-availability";
        ci_safe = None;
        ci_live = None;
        ci_safe_live = None;
      }

    let analyze ?domains ?strategy s =
      let* n, k = check s in
      let fleet = Scenario.fleet ~byz_fraction:default_byz_fraction s in
      Ok (result_at ?domains ?strategy ~n ~k fleet (Scenario.at s))

    let analyze_horizon ?domains ?strategy s =
      let* n, k = check s in
      let* h, rounds = horizon_spec s in
      let fleet = Scenario.fleet ~byz_fraction:default_byz_fraction s in
      Ok
        (List.map
           (fun at ->
             {
               Analysis.at;
               result = result_at ?domains ?strategy ~n ~k fleet (Some at);
             })
           (Analysis.horizon_times ~horizon:h ~rounds))
  end)

(* How much we distrust node [id]'s reliability estimate: the spread of
   its failure process's marginal across the scenario's mission window
   ([at], falling back to [horizon]). A static estimate — or a scenario
   with no window — has zero spread, so the weighted selectors reduce
   exactly to their unweighted forms. *)
let uncertainty_samples = 8

let uncertainty_of s =
  let procs = Array.of_list (Scenario.effective_processes s) in
  let window =
    match Scenario.at s with
    | Some at -> at
    | None -> Option.value (Scenario.horizon s) ~default:0.
  in
  fun id ->
    let p = procs.(id) in
    if Faultmodel.Failure_process.is_static p || window <= 0. then 0.
    else begin
      let lo = ref infinity and hi = ref neg_infinity in
      for k = 1 to uncertainty_samples do
        let v =
          Faultmodel.Failure_process.marginal p
            (window *. float_of_int k /. float_of_int uncertainty_samples)
        in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done;
      !hi -. !lo
    end

let target_nines s = quorum_or s "target_nines" 3

let target_of s =
  let nines = target_nines s in
  if nines < 1 || nines > 12 then
    errf "target_nines must be in [1, 12] (got %d)" nines
  else Ok (Prob.Nines.to_prob (float_of_int nines))

(* Both weighted entries pick their structure from the fleet at the
   scenario's [at] (mission start when absent): the choice is part of
   the model, so a horizon trajectory shows how one chosen
   configuration ages, not a per-round re-selection. *)
let raft_weighted =
  model ~name:"raft-weighted"
    ~doc:"Flexible Raft sized by uncertainty-weighted liveness target"
    ~byz:0.0 ~quorum_keys:[ "target_nines" ]
    ~protocol_of:(fun s ->
      let* target_live = target_of s in
      match
        Dynamic_quorum.best_raft_weighted ?at:(Scenario.at s)
          ~uncertainty:(uncertainty_of s) ~target_live
          (Scenario.fleet ~byz_fraction:0.0 s)
      with
      | Some choice -> Ok (Raft_model.protocol choice.Dynamic_quorum.params)
      | None ->
          errf
            "no structurally safe Raft sizing of this %d-node fleet meets \
             %d-nines liveness under uncertainty weighting"
            (Scenario.size s) (target_nines s))
    ()

(* Only committee members' votes count, so the predicate has no count
   fast path: analysis runs on the enumeration engine, capped like the
   stake model. *)
let committee_protocol ~n (c : Committee.committee) =
  let members = c.Committee.members in
  let quorum = (List.length members / 2) + 1 in
  let live cfg =
    List.length (List.filter (fun id -> cfg.(id) = Config.Correct) members)
    >= quorum
  in
  {
    Protocol.name =
      Printf.sprintf "committee(%d of %d)" (List.length members) n;
    n;
    safe = Protocol.always ~n;
    live = Protocol.full_predicate live;
  }

let committee_weighted =
  model ~name:"committee-weighted"
    ~doc:"Smallest committee meeting the target, uncertainty-discounted"
    ~byz:0.0 ~max_nodes:22 ~quorum_keys:[ "target_nines" ]
    ~protocol_of:(fun s ->
      let* target = target_of s in
      match
        Committee.reliability_weighted ?at:(Scenario.at s)
          ~uncertainty:(uncertainty_of s) ~target
          (Scenario.fleet ~byz_fraction:0.0 s)
      with
      | Some c -> Ok (committee_protocol ~n:(Scenario.size s) c)
      | None ->
          errf
            "no committee of this %d-node fleet meets %d-nines reliability \
             under uncertainty weighting"
            (Scenario.size s) (target_nines s))
    ()

let entries : entry list =
  [ raft; pbft; pbft_forensics; upright; benor; stake; quorum_availability;
    raft_weighted; committee_weighted ]

let all () = entries

let names () = List.map (fun ((module M) : entry) -> M.name) entries

let find name =
  List.find_opt (fun ((module M) : entry) -> String.equal M.name name) entries

let dispatch : 'a. Scenario.t -> (entry -> 'a) -> ((string -> 'a) -> 'a) =
 fun s found missing ->
  match find (Scenario.protocol s) with
  | Some entry -> found entry
  | None ->
      missing
        (Printf.sprintf "unknown protocol %S (known: %s)"
           (Scenario.protocol s) (String.concat ", " (names ())))

let validate s =
  dispatch s (fun (module M) -> M.validate s) (fun msg -> Error msg)

let analyze ?domains ?strategy s =
  dispatch s
    (fun (module M) -> M.analyze ?domains ?strategy s)
    (fun msg -> Error msg)

let analyze_horizon ?domains ?strategy s =
  dispatch s
    (fun (module M) -> M.analyze_horizon ?domains ?strategy s)
    (fun msg -> Error msg)

let protocol_of s =
  dispatch s (fun (module M) -> M.protocol_of s) (fun msg -> Error msg)

let count_dp_cells s =
  dispatch s (fun (module M) -> M.count_dp_cells s) (fun _ -> None)

let fleet_of s =
  dispatch s
    (fun (module M) ->
      Ok
        (Scenario.fleet
           ~byz_fraction:
             (Option.value (Scenario.byz_fraction s)
                ~default:M.default_byz_fraction)
           s))
    (fun msg -> Error msg)

let payload ~n (r : Analysis.result) =
  Obs.Json.Obj
    [
      ("protocol", Obs.Json.String r.Analysis.protocol);
      ("n", Obs.Json.Int n);
      ("engine", Obs.Json.String r.Analysis.engine);
      ("p_safe", Obs.Json.number r.Analysis.p_safe);
      ("p_live", Obs.Json.number r.Analysis.p_live);
      ("p_safe_live", Obs.Json.number r.Analysis.p_safe_live);
      ("nines", Obs.Json.number (Prob.Nines.of_prob r.Analysis.p_safe_live));
    ]

(* One trajectory element is exactly the single-result payload with the
   round's mission time prepended — the renderer stays singular. *)
let trajectory_point ~n (hp : Analysis.horizon_point) =
  match payload ~n hp.Analysis.result with
  | Obs.Json.Obj fields ->
      Obs.Json.Obj (("at", Obs.Json.number hp.Analysis.at) :: fields)
  | j -> j

(* The canonical trajectory rendering: [protocol], [n], [horizon],
   [rounds], [min_p_live], then [trajectory]. *)
let horizon_payload ~protocol ~n ~horizon ~rounds points =
  let min_p_live =
    List.fold_left
      (fun acc (hp : Analysis.horizon_point) ->
        Float.min acc hp.Analysis.result.Analysis.p_live)
      1. points
  in
  Obs.Json.Obj
    [
      ("protocol", Obs.Json.String protocol);
      ("n", Obs.Json.Int n);
      ("horizon", Obs.Json.number horizon);
      ("rounds", Obs.Json.Int rounds);
      ("min_p_live", Obs.Json.number min_p_live);
      ("trajectory", Obs.Json.List (List.map (trajectory_point ~n) points));
    ]

let analyze_json ?strategy s =
  match Scenario.horizon s with
  | None ->
      let* r = analyze ?strategy s in
      Ok (payload ~n:(Scenario.size s) r)
  | Some horizon ->
      let rounds =
        Option.value (Scenario.rounds s) ~default:Scenario.default_rounds
      in
      let* points = analyze_horizon ?strategy s in
      Ok
        (horizon_payload ~protocol:(Scenario.protocol s) ~n:(Scenario.size s)
           ~horizon ~rounds points)
