type model =
  | Predicate of (unit -> (Protocol.t, string) result)
  | Threshold of { n : int; k : int }

type entry = {
  name : string;
  doc : string;
  default_byz_fraction : float;
  max_nodes : int;
  quorum_keys : string list;
  stakes_ok : bool;
  counted : bool;
  model : Scenario.t -> (model, string) result;
}

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let wrap f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let quorum_or s key default =
  match Scenario.quorum s key with Some v -> v | None -> default

(* A predicate cheap enough to build while the scenario is checked: its
   constructor checks the overrides' values ([Invalid_argument] mapped
   to [Error]). *)
let built f s = Result.map (fun proto -> Predicate (fun () -> Ok proto)) (f s)

let raft =
  { name = "raft"; doc = "Crash-fault Raft (Theorem 3.2)";
    default_byz_fraction = 0.0; max_nodes = Scenario.max_fleet_nodes;
    quorum_keys = [ "q_per"; "q_vc" ]; stakes_ok = false; counted = true;
    model =
      built (fun s ->
          let n = Scenario.size s in
          wrap (fun () ->
              let d = Raft_model.default n in
              Raft_model.protocol
                (Raft_model.flexible ~n
                   ~q_per:(quorum_or s "q_per" d.Raft_model.q_per)
                   ~q_vc:(quorum_or s "q_vc" d.Raft_model.q_vc))))
  }

let pbft_params s =
  let n = Scenario.size s in
  wrap (fun () ->
      let d = Pbft_model.default n in
      Pbft_model.make ~n
        ~q_eq:(quorum_or s "q_eq" d.Pbft_model.q_eq)
        ~q_per:(quorum_or s "q_per" d.Pbft_model.q_per)
        ~q_vc:(quorum_or s "q_vc" d.Pbft_model.q_vc)
        ~q_vc_t:(quorum_or s "q_vc_t" d.Pbft_model.q_vc_t))

let pbft =
  { name = "pbft"; doc = "Byzantine-fault PBFT (Theorem 3.1)";
    default_byz_fraction = 1.0; max_nodes = Scenario.max_fleet_nodes;
    quorum_keys = [ "q_eq"; "q_per"; "q_vc"; "q_vc_t" ]; stakes_ok = false;
    counted = true;
    model = built (fun s -> Result.map Pbft_model.protocol (pbft_params s))
  }

let pbft_forensics =
  { pbft with
    name = "pbft-forensics"; doc = "PBFT counting safe-or-accountable as safe";
    model =
      built (fun s -> Result.map Pbft_model.safe_or_accountable (pbft_params s))
  }

(* The paper's mixed-fault setting: most faults crash, a sliver
   (mercurial cores, TEE compromises) is Byzantine. *)
let upright =
  { name = "upright"; doc = "Dual-threshold Upright (u total, r Byzantine)";
    default_byz_fraction = 0.0025; max_nodes = Scenario.max_fleet_nodes;
    quorum_keys = [ "u"; "r" ]; stakes_ok = false; counted = true;
    model =
      built (fun s ->
          let n = Scenario.size s in
          wrap (fun () ->
              let r = quorum_or s "r" (if n >= 4 then 1 else 0) in
              let u =
                quorum_or s "u" (Upright_model.max_params ~n ~r).Upright_model.u
              in
              Upright_model.protocol (Upright_model.make ~n ~u ~r)))
  }

let benor =
  { name = "benor"; doc = "Crash-fault Ben-Or randomized consensus";
    default_byz_fraction = 0.0; max_nodes = Scenario.max_fleet_nodes;
    quorum_keys = [ "f" ]; stakes_ok = false; counted = true;
    model =
      built (fun s ->
          let n = Scenario.size s in
          wrap (fun () ->
              Benor_model.protocol
                (Benor_model.make ~n ~f:(quorum_or s "f" ((n - 1) / 2)))))
  }

(* Identity-dependent predicate: exact enumeration, so the fleet is
   capped where 2^n stays interactive. *)
let stake =
  { name = "stake"; doc = "Stake-weighted thresholds (enumeration path)";
    default_byz_fraction = 1.0; max_nodes = 22; quorum_keys = [];
    stakes_ok = true; counted = false;
    model =
      built (fun s ->
          let n = Scenario.size s in
          let stakes =
            match Scenario.stakes s with
            | Some l -> l
            | None -> List.init n (fun _ -> 1.0)
          in
          if List.length stakes <> n then
            errf "stakes has %d entries for a %d-node fleet"
              (List.length stakes) n
          else
            wrap (fun () ->
                Stake_model.protocol (Stake_model.make (Array.of_list stakes))))
  }

(* Total, so that [protocol_of] knows a threshold before any check; the
   quorum's range is checked with the shared checks. *)
let quorum_availability =
  { name = "quorum-availability";
    doc = "Availability of a k-of-n threshold quorum system";
    default_byz_fraction = 0.0; max_nodes = Scenario.max_fleet_nodes;
    quorum_keys = [ "quorum" ]; stakes_ok = false; counted = false;
    model =
      (fun s ->
        let n = Scenario.size s in
        Ok (Threshold { n; k = quorum_or s "quorum" ((n / 2) + 1) }))
  }

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

(* Both weighted entries check [target_nines] with the scenario, and
   search for their structure only when the predicate is built, so
   validating a scenario runs no search. The structure is picked from
   the fleet at the scenario's [at] (mission start when absent): the
   choice is part of the model, so a horizon trajectory shows how one
   chosen configuration ages, not a per-round re-selection. *)
let weighted ~search ~unmet s =
  let nines = quorum_or s "target_nines" 3 in
  if nines < 1 || nines > 12 then
    errf "target_nines must be in [1, 12] (got %d)" nines
  else
    Ok
      (Predicate
         (fun () ->
           match
             search ~at:(Scenario.at s) ~uncertainty:(uncertainty_of s)
               ~target:(Prob.Nines.to_prob (float_of_int nines))
               (Scenario.fleet ~byz_fraction:0.0 s)
           with
           | Some proto -> Ok proto
           | None -> errf unmet (Scenario.size s) nines))

let raft_weighted =
  { name = "raft-weighted";
    doc = "Flexible Raft sized by uncertainty-weighted liveness target";
    default_byz_fraction = 0.0; max_nodes = Scenario.max_fleet_nodes;
    quorum_keys = [ "target_nines" ]; stakes_ok = false; counted = false;
    model =
      weighted
        ~unmet:
          "no structurally safe Raft sizing of this %d-node fleet meets \
           %d-nines liveness under uncertainty weighting"
        ~search:(fun ~at ~uncertainty ~target fleet ->
          Option.map
            (fun choice -> Raft_model.protocol choice.Dynamic_quorum.params)
            (Dynamic_quorum.best_raft_weighted ?at ~uncertainty
               ~target_live:target fleet))
  }

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
  { name = "committee-weighted";
    doc = "Smallest committee meeting the target, uncertainty-discounted";
    default_byz_fraction = 0.0; max_nodes = 22;
    quorum_keys = [ "target_nines" ]; stakes_ok = false; counted = false;
    model =
      weighted
        ~unmet:
          "no committee of this %d-node fleet meets %d-nines reliability \
           under uncertainty weighting"
        ~search:(fun ~at ~uncertainty ~target fleet ->
          Option.map
            (committee_protocol ~n:(Faultmodel.Fleet.size fleet))
            (Committee.reliability_weighted ?at ~uncertainty ~target fleet))
  }

let entries =
  [ raft; pbft; pbft_forensics; upright; benor; stake; quorum_availability;
    raft_weighted; committee_weighted ]

let all () = entries
let names () = List.map (fun e -> e.name) entries

let entry_of s =
  let name = Scenario.protocol s in
  match List.find_opt (fun e -> String.equal e.name name) entries with
  | Some e -> Ok e
  | None ->
      errf "unknown protocol %S (known: %s)" name
        (String.concat ", " (names ()))

(* Checks shared by every entry: fleet bound, override keys known,
   stakes only where they mean something, a threshold within the
   fleet. They report before the entry's own checks in [model]. *)
let check e s m =
  let n = Scenario.size s in
  if n > e.max_nodes then
    errf "%s supports at most %d nodes (got %d)" e.name e.max_nodes n
  else
    match
      List.find_opt
        (fun (key, _) -> not (List.mem key e.quorum_keys))
        (Scenario.quorums s)
    with
    | Some (key, _) ->
        errf "%s takes no quorum override %S%s" e.name key
          (if e.quorum_keys = [] then ""
           else
             Printf.sprintf " (allowed: %s)" (String.concat ", " e.quorum_keys))
    | None -> (
        if (not e.stakes_ok) && Scenario.stakes s <> None then
          errf "stakes only apply to the stake protocol (got %s)" e.name
        else
          match m with
          | Ok (Threshold { k; _ }) when k < 1 || k > n ->
              errf "quorum must be in [1, %d]" n
          | m -> m)

(* The scenario's entry and checked model. Nothing runs here: a
   weighted entry's search waits in its [Predicate]. *)
let checked s =
  let* e = entry_of s in
  let* m = check e s (e.model s) in
  Ok (e, m)

let validate s = Result.map ignore (checked s)

let byz_fraction e s =
  Option.value (Scenario.byz_fraction s) ~default:e.default_byz_fraction

let fleet e s = Scenario.fleet ~byz_fraction:(byz_fraction e s) s

let fleet_of s = Result.map (fun e -> fleet e s) (entry_of s)

(* A threshold has no predicate form, whatever its scenario: the model
   is asked first, and checked only when it is a predicate. *)
let protocol_of s =
  let* e = entry_of s in
  let predicate = function
    | Predicate build -> build ()
    | Threshold _ -> errf "%s has no predicate form" e.name
  in
  match e.model s with
  | Ok (Threshold _ as m) -> predicate m
  | m -> Result.bind (check e s m) predicate

let count_dp_cells s =
  match entry_of s with
  | Ok e when e.counted && Scenario.horizon s = None ->
      let f = byz_fraction e s in
      Some
        (Config.count_dp_cells ~n:(Scenario.size s) ~mixed:(f > 0. && f < 1.))
  | _ -> None

(* A fault of either kind is a fault to a threshold. [Enumeration] maps
   to the exact-override path; every other strategy keeps the count
   DP. *)
let threshold_result ?domains ?strategy ~n ~k fleet at =
  let a =
    Quorum.Quorum_system.availability ?domains
      ~exact:(strategy = Some Analysis.Enumeration)
      (Quorum.Quorum_system.Threshold { n; k })
      (Faultmodel.Fleet.fault_probs ?at fleet)
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
  let* e, m = checked s in
  let at = Scenario.at s and fleet = fleet e s in
  match m with
  | Predicate build ->
      let* proto = build () in
      wrap (fun () ->
          Analysis.run ?at ?seed:(Scenario.seed s) ?strategy ?domains proto
            fleet)
  | Threshold { n; k } ->
      Ok (threshold_result ?domains ?strategy ~n ~k fleet at)

let analyze_horizon ?strategy s =
  let* e, m = checked s in
  let fleet = fleet e s in
  (* The predicate is built before the horizon is read, so a failed
     search reports first. *)
  let* trajectory =
    match m with
    | Predicate build ->
        let* proto = build () in
        Ok
          (fun times ->
            wrap (fun () ->
                Analysis.run_horizon ?strategy ?seed:(Scenario.seed s) ~times
                  proto fleet))
    | Threshold { n; k } ->
        let point at =
          { Analysis.at; result = threshold_result ?strategy ~n ~k fleet (Some at) }
        in
        Ok (fun times -> Ok (List.map point times))
  in
  match Scenario.horizon s with
  | None -> Error "scenario has no horizon"
  | Some horizon ->
      let rounds =
        Option.value (Scenario.rounds s) ~default:Scenario.default_rounds
      in
      trajectory (Analysis.horizon_times ~horizon ~rounds)

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
