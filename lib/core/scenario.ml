type t = {
  protocol : string;
  mix : (int * float) list;
  byz_fraction : float option;
  quorums : (string * int) list;
  stakes : float list option;
  processes : Faultmodel.Failure_process.t list option;
  at : float option;
  seed : int option;
  horizon : float option;
  rounds : int option;
}

let max_fleet_nodes = 200
let max_quorum_value = 1000
let max_quorum_overrides = 8
let max_protocol_chars = 64
let max_rounds = 64
let default_rounds = 12

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let protocol s = s.protocol
let mix s = s.mix
let byz_fraction s = s.byz_fraction
let quorums s = s.quorums
let quorum s key = List.assoc_opt key s.quorums
let stakes s = s.stakes
let at s = s.at
let seed s = s.seed
let horizon s = s.horizon
let rounds s = s.rounds
let size s = List.fold_left (fun acc (c, _) -> acc + c) 0 s.mix

let effective_processes s =
  match s.processes with
  | Some ps -> ps
  | None ->
      List.concat_map
        (fun (count, p) ->
          List.init count (fun _ -> Faultmodel.Failure_process.Static p))
        s.mix

(* --- Validation -------------------------------------------------------- *)

let is_prob p = Float.is_finite p && p >= 0. && p <= 1.

let validate_mix groups =
  if groups = [] then Error "mix must be non-empty"
  else
    (* Bound each count before summing: with every count <=
       max_fleet_nodes the total below cannot wrap. *)
    let rec check = function
      | [] -> Ok ()
      | (count, _) :: _ when count < 1 || count > max_fleet_nodes ->
          errf "mix group counts must be in [1, %d]" max_fleet_nodes
      | (_, p) :: _ when not (is_prob p) ->
          Error "mix group probability must be a probability in [0,1]"
      | _ :: rest -> check rest
    in
    let* () = check groups in
    let total = List.fold_left (fun acc (c, _) -> acc + c) 0 groups in
    if total > max_fleet_nodes then
      errf "fleet of %d nodes exceeds the %d-node limit" total max_fleet_nodes
    else Ok ()

let validate_protocol name =
  let ok_char = function
    | 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true
    | _ -> false
  in
  if name = "" then Error "protocol must be non-empty"
  else if String.length name > max_protocol_chars then
    errf "protocol name exceeds %d characters" max_protocol_chars
  else if not (String.for_all ok_char name) then
    Error "protocol names use lowercase letters, digits, '-' and '_'"
  else Ok ()

let validate_quorums quorums =
  if List.length quorums > max_quorum_overrides then
    errf "at most %d quorum overrides" max_quorum_overrides
  else
    let rec check = function
      | [] -> Ok ()
      | (key, _) :: _ when key = "" || String.length key > 32 ->
          Error "quorum override keys must be 1..32 characters"
      | (_, v) :: _ when v < 0 || v > max_quorum_value ->
          errf "quorum override values must be in [0, %d]" max_quorum_value
      | (key, _) :: rest when List.mem_assoc key rest ->
          errf "duplicate quorum override %S" key
      | _ :: rest -> check rest
    in
    let* () = check quorums in
    Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) quorums)

let validate_stakes = function
  | None -> Ok ()
  | Some [] -> Error "stakes must be non-empty"
  | Some l when List.length l > max_fleet_nodes ->
      errf "stakes exceed the %d-node limit" max_fleet_nodes
  | Some l when not (List.for_all (fun v -> Float.is_finite v && v > 0.) l) ->
      Error "stakes must be finite and positive"
  | Some _ -> Ok ()

let validate_processes ~mix = function
  | None -> Ok ()
  | Some [] -> Error "processes must be non-empty"
  | Some ps ->
      let n = List.fold_left (fun acc (c, _) -> acc + c) 0 mix in
      if List.length ps <> n then
        errf "processes must list exactly one process per node (%d)" n
      else
        let rec check = function
          | [] -> Ok ()
          | p :: rest -> (
              match Faultmodel.Failure_process.validate p with
              | Ok _ -> check rest
              | Error msg -> Error msg)
        in
        check ps

let make ?byz_fraction ?(quorums = []) ?stakes ?processes ?at ?seed ?horizon
    ?rounds ~protocol ~mix () =
  let* () = validate_protocol protocol in
  let* () = validate_mix mix in
  let* () =
    match byz_fraction with
    | None -> Ok ()
    | Some b when is_prob b -> Ok ()
    | Some _ -> Error "byz_fraction must be a probability in [0,1]"
  in
  let* quorums = validate_quorums quorums in
  let* () = validate_stakes stakes in
  let* () = validate_processes ~mix processes in
  let* () =
    match at with
    | None -> Ok ()
    | Some t when Float.is_finite t && t > 0. -> Ok ()
    | Some _ -> Error "at must be a positive, finite mission time"
  in
  let* () =
    match horizon with
    | None -> Ok ()
    | Some h when Float.is_finite h && h > 0. -> Ok ()
    | Some _ -> Error "horizon must be a positive, finite mission time"
  in
  let* () =
    match rounds with
    | None -> Ok ()
    | Some _ when horizon = None -> Error "rounds requires horizon"
    | Some r when r >= 1 && r <= max_rounds -> Ok ()
    | Some _ -> errf "rounds must be in [1, %d]" max_rounds
  in
  Ok
    {
      protocol;
      mix;
      byz_fraction;
      quorums;
      stakes;
      processes;
      at;
      seed;
      horizon;
      rounds;
    }

let unsafe = function Ok s -> s | Error msg -> invalid_arg ("Scenario: " ^ msg)

let remake s =
  unsafe
    (make ?byz_fraction:s.byz_fraction ~quorums:s.quorums ?stakes:s.stakes
       ?processes:s.processes ?at:s.at ?seed:s.seed ?horizon:s.horizon
       ?rounds:s.rounds ~protocol:s.protocol ~mix:s.mix ())

let uniform ~protocol ~n ~p () = unsafe (make ~protocol ~mix:[ (n, p) ] ())

let with_protocol protocol s = remake { s with protocol }
let with_mix mix s = remake { s with mix }
let with_p p s = remake { s with mix = List.map (fun (c, _) -> (c, p)) s.mix }

let with_horizon ?rounds horizon s =
  remake { s with horizon = Some horizon; rounds }

(* --- Canonical encoding ------------------------------------------------ *)

let to_json s =
  let opt name render = function None -> [] | Some v -> [ (name, render v) ] in
  Obs.Json.Obj
    (("protocol", Obs.Json.String s.protocol)
     :: ( "mix",
          Obs.Json.List
            (List.map
               (fun (count, p) ->
                 Obs.Json.List [ Obs.Json.Int count; Obs.Json.number p ])
               s.mix) )
     :: (opt "byz_fraction" Obs.Json.number s.byz_fraction
        @ (if s.quorums = [] then []
           else
             [
               ( "quorums",
                 Obs.Json.Obj
                   (List.map (fun (k, v) -> (k, Obs.Json.Int v)) s.quorums) );
             ])
        @ opt "stakes"
            (fun l -> Obs.Json.List (List.map Obs.Json.number l))
            s.stakes
        @ opt "processes"
            (fun ps ->
              Obs.Json.List (List.map Faultmodel.Failure_process.to_json ps))
            s.processes
        @ opt "at" Obs.Json.number s.at
        @ opt "seed" (fun i -> Obs.Json.Int i) s.seed
        @ opt "horizon" Obs.Json.number s.horizon
        @ opt "rounds" (fun i -> Obs.Json.Int i) s.rounds))

let to_string s = Obs.Json.to_string (to_json s)

(* --- Parsing ----------------------------------------------------------- *)

let mix_of_params params =
  let groups =
    match Obs.Json.member "mix" params with
    | Some (Obs.Json.List []) -> Error "mix must be non-empty"
    | Some (Obs.Json.List items) ->
        let rec parse acc = function
          | [] -> Ok (List.rev acc)
          | Obs.Json.List [ count; p ] :: rest -> (
              match (Obs.Json.to_int count, Obs.Json.to_float p) with
              | Some count, Some p -> parse ((count, p) :: acc) rest
              | None, _ -> Error "mix group counts must be positive integers"
              | _, None -> Error "mix group probability must be a number")
          | _ -> Error "mix groups must be [count, probability] pairs"
        in
        parse [] items
    | Some _ -> Error "mix must be a list of [count, probability] pairs"
    | None -> (
        match (Obs.Json.member "n" params, Obs.Json.member "p" params) with
        | None, _ -> Error "missing n"
        | Some (Obs.Json.Int n), pj -> (
            if n < 1 then Error "n must be positive"
            else
              match Option.bind pj Obs.Json.to_float with
              | Some p -> Ok [ (n, p) ]
              | None -> Error "missing p")
        | Some _, _ -> Error "n must be an integer")
  in
  let* groups = groups in
  let* () = validate_mix groups in
  Ok groups

let opt_number name json =
  match Obs.Json.member name json with
  | None -> Ok None
  | Some j -> (
      match Obs.Json.to_float j with
      | Some v -> Ok (Some v)
      | None -> errf "%s must be a number" name)

let of_json json =
  match json with
  | Obs.Json.Obj _ ->
      let* protocol =
        match Obs.Json.member "protocol" json with
        | None -> Ok "raft"
        | Some (Obs.Json.String s) -> Ok s
        | Some _ -> Error "protocol must be a string"
      in
      let* mix = mix_of_params json in
      let* byz_fraction = opt_number "byz_fraction" json in
      let* quorums =
        match Obs.Json.member "quorums" json with
        | None -> Ok []
        | Some (Obs.Json.Obj fields) ->
            let rec parse acc = function
              | [] -> Ok (List.rev acc)
              | (key, v) :: rest -> (
                  match Obs.Json.to_int v with
                  | Some v -> parse ((key, v) :: acc) rest
                  | None -> errf "quorum override %S must be an integer" key)
            in
            parse [] fields
        | Some _ -> Error "quorums must be an object of integers"
      in
      let* stakes =
        match Obs.Json.member "stakes" json with
        | None -> Ok None
        | Some (Obs.Json.List items) ->
            let rec parse acc = function
              | [] -> Ok (Some (List.rev acc))
              | j :: rest -> (
                  match Obs.Json.to_float j with
                  | Some v -> parse (v :: acc) rest
                  | None -> Error "stakes must be numbers")
            in
            parse [] items
        | Some _ -> Error "stakes must be a list of numbers"
      in
      let* processes =
        match Obs.Json.member "processes" json with
        | None -> Ok None
        | Some (Obs.Json.List items) ->
            let rec parse acc = function
              | [] -> Ok (Some (List.rev acc))
              | j :: rest -> (
                  match Faultmodel.Failure_process.of_json j with
                  | Ok p -> parse (p :: acc) rest
                  | Error msg -> Error msg)
            in
            parse [] items
        | Some _ -> Error "processes must be a list of process objects"
      in
      let* at = opt_number "at" json in
      let* seed =
        match Obs.Json.member "seed" json with
        | None -> Ok None
        | Some j -> (
            match Obs.Json.to_int j with
            | Some v -> Ok (Some v)
            | None -> Error "seed must be an integer")
      in
      let* horizon = opt_number "horizon" json in
      let* rounds =
        match Obs.Json.member "rounds" json with
        | None -> Ok None
        | Some j -> (
            match Obs.Json.to_int j with
            | Some v -> Ok (Some v)
            | None -> Error "rounds must be an integer")
      in
      make ?byz_fraction ~quorums ?stakes ?processes ?at ?seed ?horizon ?rounds
        ~protocol ~mix ()
  | _ -> Error "scenario must be a JSON object"

let of_string s =
  match Obs.Json.of_string s with
  | Error msg -> Error msg
  | Ok json -> of_json json

(* --- Realization ------------------------------------------------------- *)

let fleet ~byz_fraction s =
  match s.processes with
  | None ->
      Faultmodel.Fleet.of_nodes
        (List.concat_map
           (fun (count, p) ->
             List.init count (fun _ ->
                 Faultmodel.Node.make ~id:0 ~byz_fraction
                   (Faultmodel.Fault_curve.constant p)))
           s.mix)
  | Some ps ->
      Faultmodel.Fleet.of_nodes
        (List.map
           (fun p ->
             Faultmodel.Node.make ~id:0 ~byz_fraction
               (Faultmodel.Failure_process.to_curve p))
           ps)

let equal (a : t) b = a = b
