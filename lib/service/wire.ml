type system =
  | Majority of int
  | Threshold of { n : int; k : int }
  | Wheel of int
  | Grid of { rows : int; cols : int }

type probs = Uniform of float | Per_node of float list

type fleet_params = {
  nodes : int;
  ticks : int;
  seed : int;
  quorum : int option;
  target_nines : float;
  dynamic : bool;
}

type query =
  | Analyze of { scenario : Probcons.Scenario.t }
  | Availability of { system : system; probs : probs }
  | Committee of { target_nines : float; groups : (int * float) list }
  | Quorum_size of { target_live_nines : float; groups : (int * float) list }
  | Markov of { n : int; quorum : int option; afr : float; mttr_hours : float }
  | Plan of { target_nines : float; groups : (int * float) list }
  | Fleet_recommend of fleet_params
  | Fleet_ingest of fleet_params
  | Scenario_put of { name : string; scenario : Probcons.Scenario.t; nonce : int }
  | Scenario_get of { name : string; linearizable : bool }
  | Replica_status
  | Stats
  | Ping

type error_code =
  | Parse_error
  | Unsupported_version
  | Bad_request
  | Unknown_kind
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Internal
  | Not_leader
  | Timeout
  | Connection_lost

let protocol_version = 3
let protocol_name = Printf.sprintf "probcons-wire/%d" protocol_version

let code_string = function
  | Parse_error -> "parse_error"
  | Unsupported_version -> "unsupported_version"
  | Bad_request -> "bad_request"
  | Unknown_kind -> "unknown_kind"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"
  | Not_leader -> "not_leader"
  | Timeout -> "timeout"
  | Connection_lost -> "connection_lost"

let code_of_string = function
  | "parse_error" -> Some Parse_error
  | "unsupported_version" -> Some Unsupported_version
  | "bad_request" -> Some Bad_request
  | "unknown_kind" -> Some Unknown_kind
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | "not_leader" -> Some Not_leader
  | "timeout" -> Some Timeout
  | "connection_lost" -> Some Connection_lost
  | _ -> None

type request = { id : int; query : query }

(* --- Validation bounds ------------------------------------------------ *)

(* Every query must terminate quickly on the worker: fleets are capped
   where the count-DP engine (O(n^2) for one fault kind, about n^3/6
   cells for a mixed fleet) stays fast, and subset-enumerating
   quorum systems where 2^n stays interactive. Out-of-bounds params are
   a [bad_request], not a hung worker. The fleet bound is the scenario
   layer's (one validator for CLI, wire and files); per-model bounds
   come from the registry at parse time. *)
let max_enum_nodes = 22
let max_threshold_nodes = 1000
let max_markov_nodes = 64
let max_nines = 12.

(* Fleet-controller runs are the most expensive cacheable queries: each
   tick counts the fleet in O(nodes^2), so the wire caps the closed
   loop at sizes where a cold run stays well under a second. *)
let max_fleet_ctrl_nodes = 256
let max_fleet_ticks = 128

(* --- Canonical encoding ----------------------------------------------- *)

let kind_string = function
  | Analyze _ -> "analyze"
  | Availability _ -> "availability"
  | Committee _ -> "committee"
  | Quorum_size _ -> "quorum_size"
  | Markov _ -> "markov"
  | Plan _ -> "plan"
  | Fleet_recommend _ -> "fleet_recommend"
  | Fleet_ingest _ -> "fleet_ingest"
  | Scenario_put _ -> "scenario_put"
  | Scenario_get _ -> "scenario_get"
  | Replica_status -> "replica_status"
  | Stats -> "stats"
  | Ping -> "ping"

let json_groups groups =
  Obs.Json.List
    (List.map
       (fun (count, p) -> Obs.Json.List [ Obs.Json.Int count; Obs.Json.number p ])
       groups)

let json_system = function
  | Majority n ->
      Obs.Json.Obj [ ("kind", Obs.Json.String "majority"); ("n", Obs.Json.Int n) ]
  | Threshold { n; k } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "threshold"); ("n", Obs.Json.Int n);
          ("k", Obs.Json.Int k) ]
  | Wheel n ->
      Obs.Json.Obj [ ("kind", Obs.Json.String "wheel"); ("n", Obs.Json.Int n) ]
  | Grid { rows; cols } ->
      Obs.Json.Obj
        [ ("kind", Obs.Json.String "grid"); ("rows", Obs.Json.Int rows);
          ("cols", Obs.Json.Int cols) ]

let json_probs = function
  | Uniform p -> ("p", Obs.Json.number p)
  | Per_node ps -> ("probs", Obs.Json.List (List.map Obs.Json.number ps))

(* Params in a fixed field order with fixed number formatting: this is
   both the request encoding and (prefixed by the kind) the cache key,
   so semantically identical queries collapse to one entry. *)
let query_params = function
  | Analyze { scenario } -> (
      (* Analyze params ARE the canonical scenario encoding: a
         [--scenario FILE] body, these params and the cache key are the
         same bytes. *)
      match Probcons.Scenario.to_json scenario with
      | Obs.Json.Obj fields -> fields
      | _ -> assert false)
  | Availability { system; probs } ->
      [ ("system", json_system system); json_probs probs ]
  | Committee { target_nines; groups } ->
      [ ("target_nines", Obs.Json.number target_nines); ("mix", json_groups groups) ]
  | Quorum_size { target_live_nines; groups } ->
      [
        ("target_live_nines", Obs.Json.number target_live_nines);
        ("mix", json_groups groups);
      ]
  | Markov { n; quorum; afr; mttr_hours } ->
      [ ("n", Obs.Json.Int n) ]
      @ (match quorum with Some q -> [ ("quorum", Obs.Json.Int q) ] | None -> [])
      @ [ ("afr", Obs.Json.number afr); ("mttr_hours", Obs.Json.number mttr_hours) ]
  | Plan { target_nines; groups } ->
      [ ("target_nines", Obs.Json.number target_nines); ("mix", json_groups groups) ]
  | Fleet_recommend f | Fleet_ingest f ->
      (* Always the normalized values: a request that leans on the
         defaults and one that spells them out share a cache entry. *)
      [ ("nodes", Obs.Json.Int f.nodes); ("ticks", Obs.Json.Int f.ticks);
        ("seed", Obs.Json.Int f.seed) ]
      @ (match f.quorum with
        | Some q -> [ ("quorum", Obs.Json.Int q) ]
        | None -> [])
      @ [ ("target_nines", Obs.Json.number f.target_nines) ]
      (* [dynamic:false] and absent normalize to the same bytes, so
         pre-dynamic cache keys are untouched. *)
      @ (if f.dynamic then [ ("dynamic", Obs.Json.Bool true) ] else [])
  | Scenario_put { name; scenario; nonce } ->
      [ ("name", Obs.Json.String name);
        ("scenario", Probcons.Scenario.to_json scenario) ]
      (* [nonce:0] and absent normalize to the same bytes; a non-zero
         nonce distinguishes deliberate re-puts of identical content
         (the replicated command id is these canonical bytes). *)
      @ (if nonce <> 0 then [ ("nonce", Obs.Json.Int nonce) ] else [])
  | Scenario_get { name; linearizable } ->
      [ ("name", Obs.Json.String name) ]
      @ (if linearizable then [ ("linearizable", Obs.Json.Bool true) ] else [])
  | Replica_status -> []
  | Stats | Ping -> []

let canonical_key query =
  kind_string query ^ " " ^ Obs.Json.to_string (Obs.Json.Obj (query_params query))

(* Replica-plane queries are stateful (a put mutates, a get/status read
   live replicated state), so they must never be answered from the
   byte-identical reply cache. *)
let cacheable = function
  | Stats | Ping | Scenario_put _ | Scenario_get _ | Replica_status -> false
  | _ -> true

let encode_request { id; query } =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("v", Obs.Json.Int protocol_version);
         ("id", Obs.Json.Int id);
         ("kind", Obs.Json.String (kind_string query));
         ("params", Obs.Json.Obj (query_params query));
       ])

(* --- Request parsing --------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let get_int name = function
  | Some (Obs.Json.Int i) -> i
  | Some _ -> bad "%s must be an integer" name
  | None -> bad "missing %s" name

let get_float name = function
  | Some j -> (
      match Obs.Json.to_float j with
      | Some v when Float.is_finite v -> v
      | Some _ -> bad "%s must be finite" name
      | None -> bad "%s must be a number" name)
  | None -> bad "missing %s" name

let check_prob name p =
  if not (Float.is_finite p && p >= 0. && p <= 1.) then
    bad "%s must be a probability in [0,1]" name;
  p

let check_nines name v =
  if not (Float.is_finite v && v > 0. && v <= max_nines) then
    bad "%s must be in (0, %g] nines" name max_nines;
  v

(* Fleet params: either the [n]/[p] shorthand or an explicit [mix] of
   [[count, p], ...] groups; both normalize to the group list. The
   bounds live in the scenario layer — the one mix validator shared
   with the CLI and scenario files. *)
let parse_groups params =
  match Probcons.Scenario.mix_of_params params with
  | Ok groups -> groups
  | Error msg -> bad "%s" msg

let parse_system params =
  let sys =
    match Obs.Json.member "system" params with
    | Some (Obs.Json.Obj _ as s) -> s
    | Some _ -> bad "system must be an object"
    | None -> bad "missing system"
  in
  let kind =
    match Option.bind (Obs.Json.member "kind" sys) Obs.Json.to_string_opt with
    | Some k -> k
    | None -> bad "system needs a kind"
  in
  let n_of limit =
    let n = get_int "system n" (Obs.Json.member "n" sys) in
    if n < 1 || n > limit then bad "system n must be in [1, %d]" limit;
    n
  in
  match kind with
  | "majority" -> Majority (n_of max_threshold_nodes)
  | "threshold" ->
      let n = n_of max_threshold_nodes in
      let k = get_int "system k" (Obs.Json.member "k" sys) in
      if k < 1 || k > n then bad "system k must be in [1, n]";
      Threshold { n; k }
  | "wheel" ->
      let n = n_of max_enum_nodes in
      if n < 3 then bad "wheel needs n >= 3";
      Wheel n
  | "grid" ->
      let rows = get_int "system rows" (Obs.Json.member "rows" sys) in
      let cols = get_int "system cols" (Obs.Json.member "cols" sys) in
      if rows < 1 || rows > max_enum_nodes || cols < 1 || cols > max_enum_nodes
      then bad "grid dimensions must be in [1, %d]" max_enum_nodes;
      if rows * cols > max_enum_nodes then
        bad "grid of %d nodes exceeds the %d-node enumeration limit" (rows * cols)
          max_enum_nodes;
      Grid { rows; cols }
  | k -> bad "unknown system kind %S" k

let system_size = function
  | Majority n | Wheel n -> n
  | Threshold { n; _ } -> n
  | Grid { rows; cols } -> rows * cols

let parse_probs ~n params =
  match (Obs.Json.member "p" params, Obs.Json.member "probs" params) with
  | Some _, Some _ -> bad "give either p or probs, not both"
  | Some p, None -> (
      match Obs.Json.to_float p with
      | Some p -> Uniform (check_prob "p" p)
      | None -> bad "p must be a number")
  | None, Some (Obs.Json.List ps) ->
      let ps =
        List.map
          (fun j ->
            match Obs.Json.to_float j with
            | Some p -> check_prob "probs entry" p
            | None -> bad "probs entries must be numbers")
          ps
      in
      if List.length ps <> n then
        bad "probs has %d entries for a %d-node system" (List.length ps) n;
      Per_node ps
  | None, Some _ -> bad "probs must be a list of numbers"
  | None, None -> bad "missing p or probs"

(* Fleet-controller params. [nodes] is required; everything else
   defaults to the CLI's defaults and parses to normalized values (an
   explicit majority quorum normalizes to the default's absence), so
   shorthand and spelled-out requests share one cache entry — and one
   payload byte sequence. *)
let parse_fleet_params params =
  let nodes = get_int "nodes" (Obs.Json.member "nodes" params) in
  if nodes < 1 || nodes > max_fleet_ctrl_nodes then
    bad "nodes must be in [1, %d]" max_fleet_ctrl_nodes;
  let int_default name default =
    match Obs.Json.member name params with
    | None -> default
    | Some j -> (
        match Obs.Json.to_int j with
        | Some v -> v
        | None -> bad "%s must be an integer" name)
  in
  let ticks = int_default "ticks" 26 in
  if ticks < 0 || ticks > max_fleet_ticks then
    bad "ticks must be in [0, %d]" max_fleet_ticks;
  let seed = int_default "seed" 42 in
  let quorum =
    match Obs.Json.member "quorum" params with
    | None -> None
    | Some j -> (
        match Obs.Json.to_int j with
        | Some q when q >= 1 && q <= nodes ->
            if q = (nodes / 2) + 1 then None else Some q
        | _ -> bad "quorum must be in [1, nodes]")
  in
  let target_nines =
    match Obs.Json.member "target_nines" params with
    | None -> 3.
    | Some j -> check_nines "target_nines" (get_float "target_nines" (Some j))
  in
  let dynamic =
    match Obs.Json.member "dynamic" params with
    | None -> false
    | Some (Obs.Json.Bool b) -> b
    | Some _ -> bad "dynamic must be a boolean"
  in
  { nodes; ticks; seed; quorum; target_nines; dynamic }

(* Scenario-store names: short, filesystem- and JSON-safe identifiers,
   validated at parse time like every other wire bound. *)
let max_store_name_bytes = 64

let store_name_error name =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
    | _ -> false
  in
  if name = "" || String.length name > max_store_name_bytes then
    Some (Printf.sprintf "name must be 1..%d bytes" max_store_name_bytes)
  else if not (String.for_all ok_char name) then
    Some "name may contain only [A-Za-z0-9._-]"
  else None

let parse_store_name params =
  match Option.bind (Obs.Json.member "name" params) Obs.Json.to_string_opt with
  | None -> bad "missing name"
  | Some name -> (
      match store_name_error name with Some msg -> bad "%s" msg | None -> name)

let parse_query ~kind ~params =
  match kind with
  | "analyze" -> (
      (* Parse-time rejection: scenario shape first, then the
         registry's per-model validation (node bounds, quorum keys,
         stakes), so an out-of-bounds scenario is a [bad_request] here
         and never reaches a worker. *)
      match Probcons.Scenario.of_json params with
      | Error msg -> bad "%s" msg
      | Ok scenario -> (
          match Probcons.Registry.validate scenario with
          | Error msg -> bad "%s" msg
          | Ok () -> Analyze { scenario }))
  | "availability" ->
      let system = parse_system params in
      Availability { system; probs = parse_probs ~n:(system_size system) params }
  | "committee" ->
      Committee
        {
          target_nines =
            check_nines "target_nines"
              (get_float "target_nines" (Obs.Json.member "target_nines" params));
          groups = parse_groups params;
        }
  | "quorum_size" ->
      Quorum_size
        {
          target_live_nines =
            check_nines "target_live_nines"
              (get_float "target_live_nines"
                 (Obs.Json.member "target_live_nines" params));
          groups = parse_groups params;
        }
  | "markov" ->
      let n = get_int "n" (Obs.Json.member "n" params) in
      if n < 1 || n > max_markov_nodes then
        bad "n must be in [1, %d]" max_markov_nodes;
      let quorum =
        match Obs.Json.member "quorum" params with
        | None -> None
        | Some j -> (
            match Obs.Json.to_int j with
            | Some q when q >= 1 && q <= n -> Some q
            | _ -> bad "quorum must be in [1, n]")
      in
      let afr = get_float "afr" (Obs.Json.member "afr" params) in
      if not (afr > 0. && afr < 1000.) then bad "afr must be in (0, 1000)";
      let mttr_hours =
        get_float "mttr_hours" (Obs.Json.member "mttr_hours" params)
      in
      if not (mttr_hours > 0.) then bad "mttr_hours must be positive";
      Markov { n; quorum; afr; mttr_hours }
  | "plan" ->
      Plan
        {
          target_nines =
            check_nines "target_nines"
              (get_float "target_nines" (Obs.Json.member "target_nines" params));
          groups = parse_groups params;
        }
  | "fleet_recommend" -> Fleet_recommend (parse_fleet_params params)
  | "fleet_ingest" -> Fleet_ingest (parse_fleet_params params)
  | "scenario_put" ->
      let name = parse_store_name params in
      let scenario =
        match Obs.Json.member "scenario" params with
        | Some (Obs.Json.Obj _ as doc) -> (
            match Probcons.Scenario.of_json doc with
            | Error msg -> bad "%s" msg
            | Ok scenario -> (
                match Probcons.Registry.validate scenario with
                | Error msg -> bad "%s" msg
                | Ok () -> scenario))
        | Some _ -> bad "scenario must be an object"
        | None -> bad "missing scenario"
      in
      let nonce =
        match Obs.Json.member "nonce" params with
        | None -> 0
        | Some j -> (
            match Obs.Json.to_int j with
            | Some v when v >= 0 -> v
            | _ -> bad "nonce must be a non-negative integer")
      in
      Scenario_put { name; scenario; nonce }
  | "scenario_get" ->
      let name = parse_store_name params in
      let linearizable =
        match Obs.Json.member "linearizable" params with
        | None -> false
        | Some (Obs.Json.Bool b) -> b
        | Some _ -> bad "linearizable must be a boolean"
      in
      Scenario_get { name; linearizable }
  | "replica_status" -> Replica_status
  | "stats" -> Stats
  | "ping" -> Ping
  | _ -> raise Not_found

let parse_request body =
  if String.length body > Frame.max_payload_bytes then
    Error (None, Parse_error, "request body exceeds 1 MiB")
  else
    match Obs.Json.of_string body with
    | Error msg -> Error (None, Parse_error, msg)
    | Ok (Obs.Json.Obj _ as doc) -> (
        let id =
          match Obs.Json.member "id" doc with
          | None -> Ok 0
          | Some (Obs.Json.Int i) -> Ok i
          | Some _ -> Error "id must be an integer"
        in
        let id_hint = match id with Ok i -> Some i | Error _ -> None in
        match Obs.Json.member "v" doc with
        | Some (Obs.Json.Int v) when v = protocol_version -> (
            match id with
            | Error msg -> Error (None, Bad_request, msg)
            | Ok id -> (
                match
                  Option.bind (Obs.Json.member "kind" doc) Obs.Json.to_string_opt
                with
                | None -> Error (Some id, Bad_request, "missing kind")
                | Some kind -> (
                    let params =
                      match Obs.Json.member "params" doc with
                      | Some (Obs.Json.Obj _ as p) -> Ok p
                      | None -> Ok (Obs.Json.Obj [])
                      | Some _ -> Error "params must be an object"
                    in
                    match params with
                    | Error msg -> Error (Some id, Bad_request, msg)
                    | Ok params -> (
                        match parse_query ~kind ~params with
                        | query -> Ok { id; query }
                        | exception Bad msg -> Error (Some id, Bad_request, msg)
                        | exception Not_found ->
                            Error
                              ( Some id,
                                Unknown_kind,
                                Printf.sprintf "unknown kind %S" kind )))))
        | Some _ | None ->
            Error
              ( id_hint,
                Unsupported_version,
                Printf.sprintf "this server speaks %s" protocol_name ))
    | Ok _ -> Error (None, Bad_request, "request must be a JSON object")

(* --- Responses --------------------------------------------------------- *)

(* The envelope is assembled textually so a cached payload can be
   spliced without re-rendering — identical requests get identical
   bytes, cached or not. The prefix/suffix split is what lets the
   reactor's writer emit [prefix][payload][suffix] as three slices
   (the payload straight from the LRU's rendered bytes, never
   concatenated per request); [encode_ok] is the one-string form. *)
let ok_prefix ~id =
  Printf.sprintf "{\"v\": %d, \"id\": %d, \"ok\": " protocol_version id

let ok_suffix = "}"
let encode_ok ~id ~payload = ok_prefix ~id ^ payload ^ ok_suffix

(* An unattributable error (no parseable request id) must carry
   [id: null], never a default integer: a numeric placeholder could
   collide with a real in-flight request id, and a resilient client
   would then accept a parse_error reply as the answer to a healthy
   request. The chaos soak caught exactly that with placeholder 0. *)

(* Test-only: re-introduce the pre-fix placeholder so the DST harness
   has a real, historically observed invariant violation to find,
   shrink, and replay. Never set outside tests and the [dst
   --seeded-bug] harness. *)
let seeded_bug_id0 = ref false

let encode_error ?hint ~id code msg =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("v", Obs.Json.Int protocol_version);
         ( "id",
           match id with
           | Some i -> Obs.Json.Int i
           | None -> if !seeded_bug_id0 then Obs.Json.Int 0 else Obs.Json.Null );
         ( "error",
           Obs.Json.Obj
             ([
                ("code", Obs.Json.String (code_string code));
                ("msg", Obs.Json.String msg);
              ]
             (* [not_leader] redirects carry the believed leader's
                replica id so a failover client can jump straight to it
                instead of probing endpoints in order. *)
             @
             match hint with
             | Some h -> [ ("hint", Obs.Json.Int h) ]
             | None -> []) );
       ])

type response = {
  rid : int option;
  body : (Obs.Json.t, error_code * string) result;
  rhint : int option;
      (** The [hint] field of an error reply, when present (a
          [not_leader] redirect's believed-leader replica id). *)
}

(* The one shape rule for a response: a JSON document with an "ok" or
   an "error" member but not both, and its "id" when that is an
   integer; as with [Obs.Json.member], the first occurrence of a key
   counts. The walk builds what [keys] names and only checks the rest. *)
let response_shape keys body =
  match Obs.Json.members keys body with
  | Error msg -> Error (Printf.sprintf "bad response: %s" msg)
  | Ok found -> (
      let rid =
        match found.(0) with Obs.Json.Built (Obs.Json.Int i) -> Some i | _ -> None
      in
      match (found.(1), found.(2)) with
      | Absent, Absent | (Found | Built _), (Found | Built _) ->
          Error "response carries neither ok nor error"
      | ok, error -> Ok (rid, ok, error))

let verdict = Obs.Json.[| Build "id"; Find "ok"; Build "error" |]
let whole = Obs.Json.[| Build "id"; Build "ok"; Build "error" |]

(* The one reading of an error member: its code (unknown or missing
   is [Internal]), message and redirect hint. *)
let error_member = function
  | Obs.Json.Built err ->
      let field key = Obs.Json.member key err in
      let code =
        Option.bind (Option.bind (field "code") Obs.Json.to_string_opt) code_of_string
        |> Option.value ~default:Internal
      in
      let msg =
        Option.bind (field "msg") Obs.Json.to_string_opt |> Option.value ~default:""
      in
      (code, msg, Option.bind (field "hint") Obs.Json.to_int)
  | Obs.Json.Absent | Obs.Json.Found -> (Internal, "", None)

let response_verdict body =
  match response_shape verdict body with
  | Error _ as e -> e
  | Ok (rid, Found, _) -> Ok (rid, Ok ())
  | Ok (rid, _, error) ->
      let code, msg, _ = error_member error in
      Ok (rid, Error (code, msg))

let parse_response body =
  match response_shape whole body with
  | Error _ as e -> e
  | Ok (rid, Built payload, _) -> Ok { rid; body = Ok payload; rhint = None }
  | Ok (rid, _, error) ->
      let code, msg, rhint = error_member error in
      Ok { rid; body = Error (code, msg); rhint }
