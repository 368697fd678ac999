type op =
  | Put_scenario of {
      name : string;
      scenario : Probcons.Scenario.t;
      nonce : int;
    }
  | Barrier

let to_json = function
  | Put_scenario { name; scenario; nonce } ->
      Obs.Json.Obj
        (("op", Obs.Json.String "put")
        :: ("name", Obs.Json.String name)
        :: ("scenario", Probcons.Scenario.to_json scenario)
        :: (if nonce = 0 then [] else [ ("nonce", Obs.Json.Int nonce) ]))
  | Barrier -> Obs.Json.Obj [ ("op", Obs.Json.String "barrier") ]

let to_string op = Obs.Json.to_string (to_json op)
let id = to_string

let ( let* ) = Result.bind

let string_of j name =
  match Obs.Json.member name j with
  | Some (Obs.Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "command: missing string field %S" name)

let of_json j =
  let* kind = string_of j "op" in
  match kind with
  | "put" ->
      let* name = string_of j "name" in
      if Service.Wire.store_name_error name <> None then
        Error "command: invalid store name"
      else
        let* scenario =
          match Obs.Json.member "scenario" j with
          | Some sj -> Probcons.Scenario.of_json sj
          | None -> Error "command: put carries no scenario"
        in
        let nonce =
          match Obs.Json.member "nonce" j with
          | Some (Obs.Json.Int i) when i >= 0 -> i
          | _ -> 0
        in
        Ok (Put_scenario { name; scenario; nonce })
  | "barrier" -> Ok Barrier
  (* Segments written before computes left the log may hold cache
     warming records. They changed nothing a client reads, so they
     replay as no-ops; refused, each would count as a missing
     payload. *)
  | "warm" -> Ok Barrier
  | k -> Error (Printf.sprintf "command: unknown op %S" k)

let of_string s =
  match Obs.Json.of_string s with
  | Error msg -> Error ("command: " ^ msg)
  | Ok j -> of_json j
