type t = {
  deadline : float;
  seeded_bug : bool;
  distinct : int;
  plan : Service.Chaos.plan;
  ops : int list;
}

let system_name = "service"

(* The grace the PR-5 deadline property allows on top of a call's
   budget (reconnect backoff, scheduling). *)
let deadline_grace = 0.75

let plan_probs (p : Service.Chaos.plan) =
  [
    p.Service.Chaos.delay_p; p.Service.Chaos.partial_write_p;
    p.Service.Chaos.truncate_p; p.Service.Chaos.garbage_p;
    p.Service.Chaos.reset_p; p.Service.Chaos.blackhole_p;
  ]

let active_faults plan =
  List.length (List.filter (fun p -> p > 0.) (plan_probs plan))

(* --- Execution --------------------------------------------------------- *)

let quick_config =
  {
    Service.Server.default_config with
    Service.Server.workers = 1;
    queue_depth = 16;
    cache_capacity = 64;
    idle_timeout_seconds = 30.;
  }

let fail invariant fmt =
  Printf.ksprintf (fun detail -> Harness.Fail { invariant; detail }) fmt

let run case =
  let pool = Service.Loadgen.query_pool case.distinct in
  let request slot =
    Service.Wire.encode_request { Service.Wire.id = slot; query = pool.(slot) }
  in
  let saved = !Service.Wire.seeded_bug_id0 in
  Service.Wire.seeded_bug_id0 := case.seeded_bug;
  Fun.protect
    ~finally:(fun () -> Service.Wire.seeded_bug_id0 := saved)
    (fun () ->
      let outcome, _proxy, connections_after =
        Service.Soak.through_proxy ~config:quick_config ~plan:case.plan
          (fun ~direct ~proxied ->
            (* The byte-identity baseline comes from the clean direct
               path, before any request crosses the proxy — faults
               cannot corrupt the reference. *)
            let expected =
              let c = Service.Client.connect ~retry_for:5. direct in
              Fun.protect
                ~finally:(fun () -> Service.Client.close c)
                (fun () ->
                  Array.init case.distinct (fun k ->
                      match Service.Client.call_line c ~id:k (request k) with
                      | Ok line -> line
                      | Error (code, msg) ->
                          failwith
                            (Printf.sprintf "dst baseline call %d failed: %s (%s)" k
                               (Service.Wire.code_string code)
                               msg)))
            in
            let c =
              Service.Client.connect ~retry_for:5. ~timeout:case.deadline
                ~seed:case.plan.Service.Chaos.seed proxied
            in
            Fun.protect
              ~finally:(fun () -> Service.Client.close c)
              (fun () ->
                let rec issue index = function
                  | [] -> Harness.Pass
                  | slot :: rest -> (
                      let t0 = Unix.gettimeofday () in
                      let outcome = Service.Client.call_line c ~id:slot (request slot) in
                      let elapsed = Unix.gettimeofday () -. t0 in
                      if elapsed > case.deadline +. deadline_grace then
                        fail "call_outlives_deadline"
                          "op %d (slot %d) took %.3fs against a %gs deadline" index
                          slot elapsed case.deadline
                      else
                        match outcome with
                        | Ok line when String.equal line expected.(slot) ->
                            issue (index + 1) rest
                        | Ok line ->
                            fail "reply_integrity"
                              "op %d (slot %d): corrupted bytes surfaced as Ok (%d \
                               bytes, want %d)"
                              index slot (String.length line)
                              (String.length expected.(slot))
                        | Error (code, _) when List.mem code Service.Soak.allowed_codes
                          ->
                            issue (index + 1) rest
                        | Error (code, msg)
                          when code <> Service.Wire.Timeout
                               && code <> Service.Wire.Connection_lost ->
                            fail "reply_integrity"
                              "op %d (slot %d): error reply %s (%s) to a query the \
                               direct path answers"
                              index slot
                              (Service.Wire.code_string code)
                              msg
                        | Error (code, msg) ->
                            fail "typed_errors_only"
                              "op %d (slot %d): forbidden error %s (%s) reached the \
                               client"
                              index slot
                              (Service.Wire.code_string code)
                              msg)
                in
                issue 0 case.ops))
      in
      (* Leak check: with the proxy (and its upstream legs) torn down,
         the reactor's connection table must drain. *)
      match outcome with
      | Harness.Pass when connections_after > 0 ->
          fail "leak_free_drain"
            "server still holds %d connections after the proxy died"
            connections_after
      | outcome -> outcome)

(* --- Generation -------------------------------------------------------- *)

let generate ~seeded_bug rng =
  let channel p_max = if Prob.Rng.bool rng 0.55 then Prob.Rng.float rng *. p_max else 0. in
  let plan =
    {
      Service.Chaos.seed = Prob.Rng.int rng 1_000_000_000;
      delay_p = channel 0.3;
      max_delay = 0.02;
      partial_write_p = channel 0.25;
      truncate_p = channel 0.15;
      garbage_p = channel 0.3;
      reset_p = channel 0.15;
      blackhole_p = channel 0.1;
    }
  in
  let distinct = 4 in
  let ops =
    List.init (2 + Prob.Rng.int rng 15) (fun _ -> Prob.Rng.int rng distinct)
  in
  { deadline = 0.6; seeded_bug; distinct; plan; ops }

(* --- Size and shrinking ------------------------------------------------- *)

let size case =
  {
    Harness.units = active_faults case.plan + List.length case.ops;
    weight =
      List.fold_left ( +. ) 0. (plan_probs case.plan)
      +. case.plan.Service.Chaos.max_delay;
  }

let drop_nth lst n = List.filteri (fun i _ -> i <> n) lst

let candidates case =
  let plan = case.plan in
  let with_plan plan = { case with plan } in
  let zero_channels =
    List.filter_map
      (fun (p, set) -> if p > 0. then Some (with_plan (set 0.)) else None)
      [
        (plan.Service.Chaos.delay_p, fun v -> { plan with Service.Chaos.delay_p = v });
        (plan.Service.Chaos.partial_write_p, fun v -> { plan with Service.Chaos.partial_write_p = v });
        (plan.Service.Chaos.truncate_p, fun v -> { plan with Service.Chaos.truncate_p = v });
        (plan.Service.Chaos.garbage_p, fun v -> { plan with Service.Chaos.garbage_p = v });
        (plan.Service.Chaos.reset_p, fun v -> { plan with Service.Chaos.reset_p = v });
        (plan.Service.Chaos.blackhole_p, fun v -> { plan with Service.Chaos.blackhole_p = v });
      ]
  in
  let len = List.length case.ops in
  let op_halves =
    if len >= 2 then
      [ { case with ops = List.filteri (fun i _ -> i < len / 2) case.ops } ]
    else []
  in
  let op_singles =
    if len >= 1 && len <= 8 then
      List.init len (fun i -> { case with ops = drop_nth case.ops i })
    else if len >= 2 then [ { case with ops = drop_nth case.ops (len - 1) } ]
    else []
  in
  let narrow_delay =
    (* Narrow the latency window: meaningful only while delays fire. *)
    if plan.Service.Chaos.max_delay > 0.001 && plan.Service.Chaos.delay_p > 0.
    then
      [
        with_plan { plan with Service.Chaos.max_delay = plan.Service.Chaos.max_delay /. 2. };
      ]
    else []
  in
  op_halves @ zero_channels @ op_singles @ narrow_delay

(* --- JSON codec --------------------------------------------------------- *)

let encode case =
  {
    Repro.scenario =
      Obs.Json.Obj
        [
          ("deadline", Obs.Json.number case.deadline);
          ("seeded_bug", Obs.Json.Bool case.seeded_bug);
          ("distinct", Obs.Json.Int case.distinct);
        ];
    plan = Service.Chaos.plan_to_json case.plan;
    ops = Obs.Json.List (List.map (fun s -> Obs.Json.Int s) case.ops);
  }

let decode { Repro.scenario; plan; ops } =
  let ( let* ) = Result.bind in
  let* deadline =
    match Option.bind (Obs.Json.member "deadline" scenario) Obs.Json.to_float with
    | Some v when Float.is_finite v && v > 0. && v <= 30. -> Ok v
    | Some _ -> Error "deadline must be in (0, 30]"
    | None -> Error "missing numeric deadline"
  in
  let* seeded_bug =
    match Obs.Json.member "seeded_bug" scenario with
    | Some (Obs.Json.Bool b) -> Ok b
    | Some _ -> Error "seeded_bug must be a boolean"
    | None -> Ok false
  in
  let* distinct =
    match Obs.Json.member "distinct" scenario with
    | Some (Obs.Json.Int d) when d >= 1 && d <= 8 -> Ok d
    | Some _ -> Error "distinct must be in 1..8"
    | None -> Error "missing integer distinct"
  in
  let* plan = Service.Chaos.plan_of_json plan in
  let* op_docs =
    match Obs.Json.to_list ops with
    | Some l when List.length l <= 64 -> Ok l
    | Some _ -> Error "at most 64 ops"
    | None -> Error "ops must be a list"
  in
  let* ops =
    List.fold_left
      (fun acc doc ->
        let* acc = acc in
        match doc with
        | Obs.Json.Int s when s >= 0 && s < distinct -> Ok (s :: acc)
        | Obs.Json.Int s -> Error (Printf.sprintf "op slot %d out of range" s)
        | _ -> Error "ops must be integers")
      (Ok []) op_docs
  in
  Ok { deadline; seeded_bug; distinct; plan; ops = List.rev ops }

let system ?(seeded_bug = false) () =
  {
    Harness.name = system_name;
    generate = generate ~seeded_bug;
    run;
    candidates;
    size;
    faults = (fun case -> active_faults case.plan);
    ops = (fun case -> List.length case.ops);
    encode;
    decode;
  }
