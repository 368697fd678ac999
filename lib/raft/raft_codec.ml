open Raft_types

let command_to_json = function
  | Data c -> Obs.Json.Obj [ ("data", Obs.Json.Int c) ]
  | Config members ->
      Obs.Json.Obj
        [ ("config", Obs.Json.List (List.map (fun m -> Obs.Json.Int m) members)) ]

let command_of_json doc =
  match (Obs.Json.member "data" doc, Obs.Json.member "config" doc) with
  | Some (Obs.Json.Int c), None -> Ok (Data c)
  | None, Some members -> (
      match Obs.Json.to_list members with
      | Some docs ->
          let rec ints acc = function
            | [] -> Ok (Config (List.rev acc))
            | Obs.Json.Int m :: rest -> ints (m :: acc) rest
            | _ -> Error "config members must be integers"
          in
          ints [] docs
      | None -> Error "config must be a list")
  | _ -> Error "command must carry exactly one of data/config"

let entry_to_json (e : entry) =
  Obs.Json.Obj
    [
      ("term", Obs.Json.Int e.term);
      ("index", Obs.Json.Int e.index);
      ("cmd", command_to_json e.command);
    ]

let ( let* ) = Result.bind

let int_of name doc =
  match Option.bind (Obs.Json.member name doc) Obs.Json.to_int with
  | Some i -> Ok i
  | None -> Error ("missing integer " ^ name)

let bool_of name doc =
  match Obs.Json.member name doc with
  | Some (Obs.Json.Bool b) -> Ok b
  | _ -> Error ("missing boolean " ^ name)

let entry_of_json doc =
  let* term = int_of "term" doc in
  let* index = int_of "index" doc in
  let* cmd =
    match Obs.Json.member "cmd" doc with
    | Some c -> command_of_json c
    | None -> Error "entry missing cmd"
  in
  if term < 0 || index < 1 then Error "entry term/index out of range"
  else Ok { term; index; command = cmd }

let entries_of_json doc =
  match Obs.Json.to_list doc with
  | None -> Error "entries must be a list"
  | Some docs ->
      List.fold_left
        (fun acc d ->
          let* acc = acc in
          let* e = entry_of_json d in
          Ok (e :: acc))
        (Ok []) docs
      |> Result.map List.rev

let msg_to_json = function
  | Request_vote { term; candidate_id; last_log_index; last_log_term } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "request_vote");
          ("term", Obs.Json.Int term);
          ("candidate_id", Obs.Json.Int candidate_id);
          ("last_log_index", Obs.Json.Int last_log_index);
          ("last_log_term", Obs.Json.Int last_log_term);
        ]
  | Request_vote_reply { term; voter_id; granted } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "request_vote_reply");
          ("term", Obs.Json.Int term);
          ("voter_id", Obs.Json.Int voter_id);
          ("granted", Obs.Json.Bool granted);
        ]
  | Append_entries { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }
    ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "append_entries");
          ("term", Obs.Json.Int term);
          ("leader_id", Obs.Json.Int leader_id);
          ("prev_log_index", Obs.Json.Int prev_log_index);
          ("prev_log_term", Obs.Json.Int prev_log_term);
          ("entries", Obs.Json.List (List.map entry_to_json entries));
          ("leader_commit", Obs.Json.Int leader_commit);
        ]
  | Append_entries_reply { term; follower_id; success; match_index } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "append_entries_reply");
          ("term", Obs.Json.Int term);
          ("follower_id", Obs.Json.Int follower_id);
          ("success", Obs.Json.Bool success);
          ("match_index", Obs.Json.Int match_index);
        ]
  | Timeout_now { term } ->
      Obs.Json.Obj
        [ ("type", Obs.Json.String "timeout_now"); ("term", Obs.Json.Int term) ]
  | Read_probe { term; leader_id; round } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "read_probe");
          ("term", Obs.Json.Int term);
          ("leader_id", Obs.Json.Int leader_id);
          ("round", Obs.Json.Int round);
        ]
  | Read_probe_reply { term; follower_id; round } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "read_probe_reply");
          ("term", Obs.Json.Int term);
          ("follower_id", Obs.Json.Int follower_id);
          ("round", Obs.Json.Int round);
        ]

let msg_of_json doc =
  match Option.bind (Obs.Json.member "type" doc) Obs.Json.to_string_opt with
  | Some "request_vote" ->
      let* term = int_of "term" doc in
      let* candidate_id = int_of "candidate_id" doc in
      let* last_log_index = int_of "last_log_index" doc in
      let* last_log_term = int_of "last_log_term" doc in
      Ok (Request_vote { term; candidate_id; last_log_index; last_log_term })
  | Some "request_vote_reply" ->
      let* term = int_of "term" doc in
      let* voter_id = int_of "voter_id" doc in
      let* granted = bool_of "granted" doc in
      Ok (Request_vote_reply { term; voter_id; granted })
  | Some "append_entries" ->
      let* term = int_of "term" doc in
      let* leader_id = int_of "leader_id" doc in
      let* prev_log_index = int_of "prev_log_index" doc in
      let* prev_log_term = int_of "prev_log_term" doc in
      let* entries =
        match Obs.Json.member "entries" doc with
        | Some e -> entries_of_json e
        | None -> Error "append_entries missing entries"
      in
      let* leader_commit = int_of "leader_commit" doc in
      Ok
        (Append_entries
           { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit })
  | Some "append_entries_reply" ->
      let* term = int_of "term" doc in
      let* follower_id = int_of "follower_id" doc in
      let* success = bool_of "success" doc in
      let* match_index = int_of "match_index" doc in
      Ok (Append_entries_reply { term; follower_id; success; match_index })
  | Some "timeout_now" ->
      let* term = int_of "term" doc in
      Ok (Timeout_now { term })
  | Some "read_probe" ->
      let* term = int_of "term" doc in
      let* leader_id = int_of "leader_id" doc in
      let* round = int_of "round" doc in
      Ok (Read_probe { term; leader_id; round })
  | Some "read_probe_reply" ->
      let* term = int_of "term" doc in
      let* follower_id = int_of "follower_id" doc in
      let* round = int_of "round" doc in
      Ok (Read_probe_reply { term; follower_id; round })
  | Some other -> Error (Printf.sprintf "unknown raft message type %S" other)
  | None -> Error "raft message missing type"
