type packed = Packed : 'c Harness.system -> packed

let sim_protocols =
  [ Sim_case.Raft; Sim_case.Pbft; Sim_case.Benor; Sim_case.Rabia ]

let sim_names = List.map Sim_case.system_name sim_protocols

let names =
  sim_names
  @ [ Service_case.system_name; Fleet_case.system_name; Replica_case.system_name ]

let unknown name =
  Error
    (Printf.sprintf "unknown system %S (valid: sim, %s)" name
       (String.concat ", " names))

let expand name =
  if name = "sim" then Ok sim_names
  else if List.mem name names then Ok [ name ]
  else unknown name

let find ~seeded_bug name =
  if name = Service_case.system_name then
    Ok (Packed (Service_case.system ~seeded_bug ()))
  else if name = Fleet_case.system_name then Ok (Packed (Fleet_case.system ()))
  else if name = Replica_case.system_name then
    Ok (Packed (Replica_case.system ()))
  else
    match
      List.find_opt (fun p -> Sim_case.system_name p = name) sim_protocols
    with
    | Some p -> Ok (Packed (Sim_case.system p))
    | None -> unknown name

type finding = { repro : Repro.t; faults : int; ops : int }

let soak ?(seeded_bug = false) ?(shrink = true) ?(log = ignore) system ~seed ~episodes =
  let t0 = Unix.gettimeofday () in
  let rec go = function
    | [] -> Ok None
    | name :: rest -> (
        match find ~seeded_bug name with
        | Error _ as e -> e
        | Ok (Packed sys) -> (
            log (Printf.sprintf "%s: %d episodes from seed %d" name episodes seed);
            match Harness.soak ~shrink ~log sys ~seed ~episodes with
            | Harness.All_passed { episodes } ->
                log (Printf.sprintf "%s: all %d episodes passed" name episodes);
                go rest
            | Harness.Found { failure; shrunk } ->
                let final =
                  match shrunk with
                  | Some s -> s.Harness.final
                  | None -> failure.Harness.case
                in
                let elapsed_seconds = Unix.gettimeofday () -. t0 in
                Ok
                  (Some
                     {
                       repro =
                         Harness.to_repro sys ~seed ~elapsed_seconds failure shrunk;
                       faults = sys.Harness.faults final;
                       ops = sys.Harness.ops final;
                     })))
  in
  Result.bind (expand system) go

let over_bounds ?max_faults ?max_ops f =
  List.filter_map
    (fun (label, count, bound) ->
      match bound with
      | Some bound when count > bound ->
          Some (Printf.sprintf "shrunk case has %d %s, bound is %d" count label bound)
      | _ -> None)
    [ ("faults", f.faults, max_faults); ("ops", f.ops, max_ops) ]

let replay (repro : Repro.t) =
  match find ~seeded_bug:false repro.Repro.system with
  | Error _ ->
      Error (Printf.sprintf "artifact names unknown system %S" repro.Repro.system)
  | Ok (Packed sys) -> Harness.replay sys repro
