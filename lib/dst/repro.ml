type parts = { scenario : Obs.Json.t; plan : Obs.Json.t; ops : Obs.Json.t }
type expect = [ `Fail | `Pass ]

type t = {
  seed : int;
  episode : int;
  episode_seed : int;
  system : string;
  invariant : string;
  detail : string;
  expect : expect;
  parts : parts;
  shrink_attempts : int;
  original_units : int;
  original_weight : float;
  shrunk_units : int;
  shrunk_weight : float;
  elapsed_seconds : float;
}

let schema = "probcons-repro/1"

let expect_string = function `Fail -> "fail" | `Pass -> "pass"

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("system", Obs.Json.String t.system);
      ("seed", Obs.Json.Int t.seed);
      ("episode", Obs.Json.Int t.episode);
      ("episode_seed", Obs.Json.Int t.episode_seed);
      ("invariant", Obs.Json.String t.invariant);
      ("detail", Obs.Json.String t.detail);
      ("expect", Obs.Json.String (expect_string t.expect));
      ("scenario", t.parts.scenario);
      ("plan", t.parts.plan);
      ("ops", t.parts.ops);
      ( "shrink",
        Obs.Json.Obj
          [
            ("attempts", Obs.Json.Int t.shrink_attempts);
            ("original_units", Obs.Json.Int t.original_units);
            ("original_weight", Obs.Json.number t.original_weight);
            ("shrunk_units", Obs.Json.Int t.shrunk_units);
            ("shrunk_weight", Obs.Json.number t.shrunk_weight);
          ] );
      ("elapsed_seconds", Obs.Json.number t.elapsed_seconds);
    ]

let of_json doc =
  let ( let* ) = Result.bind in
  let field name = Obs.Json.member name doc in
  let* () =
    match Option.bind (field "schema") Obs.Json.to_string_opt with
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "schema is %S, want %S" s schema)
    | None -> Error "missing schema tag"
  in
  let str name =
    match Option.bind (field name) Obs.Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error ("missing string " ^ name)
  in
  let int_of name doc =
    match Obs.Json.member name doc with
    | Some (Obs.Json.Int i) -> Ok i
    | _ -> Error ("missing integer " ^ name)
  in
  let finite_of name doc =
    match Option.bind (Obs.Json.member name doc) Obs.Json.to_float with
    | Some v when Float.is_finite v -> Ok v
    | Some _ -> Error (name ^ " must be finite")
    | None -> Error ("missing numeric " ^ name)
  in
  let* system = str "system" in
  let* seed = int_of "seed" doc in
  let* episode = int_of "episode" doc in
  let* episode_seed = int_of "episode_seed" doc in
  let* invariant = str "invariant" in
  let* () = if invariant = "" then Error "invariant must be non-empty" else Ok () in
  let* detail = str "detail" in
  let* expect =
    match Option.bind (field "expect") Obs.Json.to_string_opt with
    | Some "fail" -> Ok `Fail
    | Some "pass" -> Ok `Pass
    | Some other -> Error (Printf.sprintf "expect must be fail|pass, got %S" other)
    | None -> Error "missing expect"
  in
  let* scenario =
    match field "scenario" with
    | Some (Obs.Json.Obj _ as s) -> Ok s
    | Some _ -> Error "scenario must be an object"
    | None -> Error "missing scenario"
  in
  let* plan =
    match field "plan" with
    | Some (Obs.Json.Obj _ as p) -> Ok p
    | Some _ -> Error "plan must be an object"
    | None -> Error "missing plan"
  in
  let* ops =
    match field "ops" with
    | Some (Obs.Json.List _ as o) -> Ok o
    | Some _ -> Error "ops must be a list"
    | None -> Error "missing ops"
  in
  let* shrink =
    match field "shrink" with
    | Some (Obs.Json.Obj _ as s) -> Ok s
    | Some _ -> Error "shrink must be an object"
    | None -> Error "missing shrink summary"
  in
  let* shrink_attempts = int_of "attempts" shrink in
  let* original_units = int_of "original_units" shrink in
  let* original_weight = finite_of "original_weight" shrink in
  let* shrunk_units = int_of "shrunk_units" shrink in
  let* shrunk_weight = finite_of "shrunk_weight" shrink in
  let* elapsed_seconds = finite_of "elapsed_seconds" doc in
  let* () =
    if elapsed_seconds < 0. then Error "elapsed_seconds must be non-negative"
    else Ok ()
  in
  Ok
    {
      seed;
      episode;
      episode_seed;
      system;
      invariant;
      detail;
      expect;
      parts = { scenario; plan; ops };
      shrink_attempts;
      original_units;
      original_weight;
      shrunk_units;
      shrunk_weight;
      elapsed_seconds;
    }

let of_string s = Result.bind (Obs.Json.of_string s) of_json

let write ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string (to_json t));
      output_char oc '\n')

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> of_string contents
