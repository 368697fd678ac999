module type Protocol_model = sig
  val name : string
  val doc : string
  val default_byz_fraction : float
  val max_nodes : int
  val quorum_keys : string list
  val protocol_of : Scenario.t -> (Protocol.t, string) result
  val validate : Scenario.t -> (unit, string) result

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
   model-specific parameter validation. *)
let model ~name ~doc ~byz ?(max_nodes = Scenario.max_fleet_nodes)
    ?(stakes_ok = false) ~quorum_keys ~protocol_of () : entry =
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

    let analyze ?domains ?strategy s =
      let* proto = protocol_of s in
      analyze_predicate ~default_byz:byz ?domains ?strategy s proto

    let analyze_horizon ?domains ?strategy s =
      let* proto = protocol_of s in
      analyze_predicate_horizon ~default_byz:byz ?domains ?strategy s proto
  end)

let raft =
  model ~name:"raft" ~doc:"Crash-fault Raft (Theorem 3.2)" ~byz:0.0
    ~quorum_keys:[ "q_per"; "q_vc" ]
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
    ~quorum_keys:pbft_keys
    ~protocol_of:(fun s -> Result.map Pbft_model.protocol (pbft_params s))
    ()

let pbft_forensics =
  model ~name:"pbft-forensics"
    ~doc:"PBFT counting safe-or-accountable as safe" ~byz:1.0
    ~quorum_keys:pbft_keys
    ~protocol_of:(fun s ->
      Result.map Pbft_model.safe_or_accountable (pbft_params s))
    ()

let upright =
  (* The paper's mixed-fault setting: most faults crash, a sliver
     (mercurial cores, TEE compromises) is Byzantine. *)
  model ~name:"upright" ~doc:"Dual-threshold Upright (u total, r Byzantine)"
    ~byz:0.0025
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
    ~quorum_keys:[ "f" ]
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

let builtin : entry list =
  [ raft; pbft; pbft_forensics; upright; benor; stake; quorum_availability ]

(* Entries registered by downstream libraries (probnative's
   uncertainty-weighted selectors). The registry cannot depend on the
   libraries that implement them, so they self-register at link time. *)
let registered : entry list ref = ref []

let all () = builtin @ !registered

let names () = List.map (fun ((module M) : entry) -> M.name) (all ())

let register ((module M) : entry) =
  if List.exists (fun ((module E) : entry) -> String.equal E.name M.name) (all ())
  then
    invalid_arg
      (Printf.sprintf "Registry.register: protocol %S already registered" M.name)
  else registered := !registered @ [ (module M : Protocol_model) ]

let find name =
  List.find_opt (fun ((module M) : entry) -> String.equal M.name name) (all ())

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
