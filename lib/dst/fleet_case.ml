type t = {
  nodes : int;
  ticks : int;
  seed : int;
  quorum : int;
  target_nines : float;
  dynamic : bool;
}

let system_name = "fleet"

let max_nodes = 24
let max_ticks = 64

let config case =
  let cfg =
    Fleetctl.Controller.default_config ~seed:case.seed ~ticks:case.ticks
      ~dynamic:case.dynamic ~nodes:case.nodes ()
  in
  {
    cfg with
    Fleetctl.Controller.quorum = case.quorum;
    target_live = Prob.Nines.to_prob case.target_nines;
  }

let fail invariant fmt =
  Printf.ksprintf (fun detail -> Harness.Fail { invariant; detail }) fmt

(* Why a run breaks the controller's own rules, if it does: a lever
   pulled at or above the target, a swap that does not raise liveness,
   a resize that predicts less than the target, or a final quorum
   other than the nodes the last resize needs live (the configured
   quorum if it never resized). *)
let inconsistency ~target_live ~quorum (o : Fleetctl.Controller.outcome) =
  let open Fleetctl.Controller in
  let broken { tick; p_live; action } =
    match action with
    | _ when p_live >= target_live ->
        Some
          (Printf.sprintf "tick %d fired at p_live %.17g, target %.17g" tick p_live
             target_live)
    | Swap { node; predicted_live; _ } when predicted_live <= p_live ->
        Some
          (Printf.sprintf "tick %d: swapping node %d predicts %.17g, fired at %.17g" tick
             node predicted_live p_live)
    | Resize { q_per; q_vc; predicted_live } when predicted_live < target_live ->
        Some
          (Printf.sprintf "tick %d: resize to (%d, %d) predicts %.17g, target %.17g" tick
             q_per q_vc predicted_live target_live)
    | Swap _ | Resize _ -> None
  in
  let needed =
    List.fold_left
      (fun q r ->
        match r.action with Resize { q_per; q_vc; _ } -> max q_per q_vc | Swap _ -> q)
      quorum o.recommendations
  in
  match List.find_map broken o.recommendations with
  | Some _ as detail -> detail
  | None when o.final_quorum <> needed ->
      Some
        (Printf.sprintf "final quorum %d, but the last resize needs %d nodes live"
           o.final_quorum needed)
  | None -> None

let run case =
  let cfg = config case in
  let first = Fleetctl.Controller.run cfg in
  let second = Fleetctl.Controller.run cfg in
  let bytes_of o = Obs.Json.to_string (Fleetctl.Controller.payload o) in
  let a = bytes_of first and b = bytes_of second in
  if not (String.equal a b) then
    fail "deterministic_recommendations"
      "two runs of (seed %d, %d nodes, %d ticks) rendered different payloads \
       (%d vs %d bytes)"
      case.seed case.nodes case.ticks (String.length a) (String.length b)
  else
    match
      inconsistency ~target_live:cfg.Fleetctl.Controller.target_live ~quorum:case.quorum
        first
    with
    | Some detail -> Harness.Fail { invariant = "recommendations_consistent"; detail }
    | None -> Harness.Pass

(* --- Generation -------------------------------------------------------- *)

let generate rng =
  let nodes = 3 + Prob.Rng.int rng (max_nodes - 2) in
  let ticks = 1 + Prob.Rng.int rng 40 in
  let seed = Prob.Rng.int rng 1_000_000_000 in
  let quorum =
    (* Mostly majority — the controller's default — with a tail of
       tighter quorums that actually make the liveness target slip and
       the recommendation path run. *)
    if Prob.Rng.bool rng 0.5 then (nodes / 2) + 1
    else 1 + Prob.Rng.int rng nodes
  in
  let target_nines = 1. +. (Prob.Rng.float rng *. 4.) in
  (* A third of the soak runs against the Markov ground-truth
     processes: both invariants must hold whether the fleet drifts by
     steps or by process. *)
  let dynamic = Prob.Rng.bool rng (1. /. 3.) in
  { nodes; ticks; seed; quorum; target_nines; dynamic }

(* --- Size and shrinking ------------------------------------------------- *)

let size case =
  { Harness.units = case.ticks + case.nodes; weight = case.target_nines }

let clamp_quorum ~nodes q = max 1 (min q nodes)

let candidates case =
  let halve_ticks =
    if case.ticks >= 2 then [ { case with ticks = case.ticks / 2 } ] else []
  in
  let drop_tick =
    if case.ticks >= 1 then [ { case with ticks = case.ticks - 1 } ] else []
  in
  let shrink_nodes =
    if case.nodes > 3 then
      let nodes = case.nodes - 1 in
      [ { case with nodes; quorum = clamp_quorum ~nodes case.quorum } ]
    else []
  in
  let halve_nodes =
    if case.nodes > 6 then
      let nodes = case.nodes / 2 in
      [ { case with nodes; quorum = clamp_quorum ~nodes case.quorum } ]
    else []
  in
  let undynamic = if case.dynamic then [ { case with dynamic = false } ] else [] in
  undynamic @ halve_ticks @ halve_nodes @ shrink_nodes @ drop_tick

(* --- JSON codec --------------------------------------------------------- *)

let encode case =
  {
    Repro.scenario =
      Obs.Json.Obj
        ([
           ("nodes", Obs.Json.Int case.nodes);
           ("seed", Obs.Json.Int case.seed);
           ("quorum", Obs.Json.Int case.quorum);
           ("target_nines", Obs.Json.number case.target_nines);
         ]
        (* Encoded only when true: every pre-dynamic committed artifact
           keeps its exact bytes and decodes as a static-drift case. *)
        @ if case.dynamic then [ ("dynamic", Obs.Json.Bool true) ] else []);
    (* The fault plan is the telemetry stream's drift schedule — fully
       derived from the seed, so the plan records the derivation
       parameters the default config pins. *)
    plan =
      (let s =
         Fleetctl.Stream.default_config ~seed:case.seed ~nodes:case.nodes ()
       in
       Obs.Json.Obj
         [
           ("drift_every", Obs.Json.Int s.Fleetctl.Stream.drift_every);
           ("drift_factor", Obs.Json.number Fleetctl.Stream.drift_factor);
         ]);
    ops = Obs.Json.List (List.init case.ticks (fun i -> Obs.Json.Int (i + 1)));
  }

let decode { Repro.scenario; plan = _; ops } =
  let ( let* ) = Result.bind in
  let int_field name lo hi =
    match Obs.Json.member name scenario with
    | Some (Obs.Json.Int v) when v >= lo && v <= hi -> Ok v
    | Some (Obs.Json.Int v) ->
        Error (Printf.sprintf "%s %d out of [%d, %d]" name v lo hi)
    | _ -> Error (Printf.sprintf "missing integer %s" name)
  in
  let* nodes = int_field "nodes" 1 max_nodes in
  let* seed = int_field "seed" 0 max_int in
  let* quorum = int_field "quorum" 1 nodes in
  let* target_nines =
    match
      Option.bind (Obs.Json.member "target_nines" scenario) Obs.Json.to_float
    with
    | Some v when Float.is_finite v && v > 0. && v <= 12. -> Ok v
    | Some _ -> Error "target_nines must be in (0, 12]"
    | None -> Error "missing numeric target_nines"
  in
  let* ticks =
    match Obs.Json.to_list ops with
    | Some l when List.length l <= max_ticks -> Ok (List.length l)
    | Some _ -> Error (Printf.sprintf "at most %d ticks" max_ticks)
    | None -> Error "ops must be a list (the tick sequence)"
  in
  let* dynamic =
    match Obs.Json.member "dynamic" scenario with
    | None -> Ok false
    | Some (Obs.Json.Bool b) -> Ok b
    | Some _ -> Error "dynamic must be a boolean"
  in
  Ok { nodes; ticks; seed; quorum; target_nines; dynamic }

let system () =
  {
    Harness.name = system_name;
    generate;
    run;
    candidates;
    size;
    faults = (fun _ -> 0);
    ops = (fun case -> case.ticks);
    encode;
    decode;
  }
