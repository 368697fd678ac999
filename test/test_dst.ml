(* The DST harness: shrinker laws on a cheap synthetic system (qcheck),
   repro artifact codec totality, simulator soak/round-trip coverage,
   the seeded-bug end-to-end acceptance (find -> shrink -> bounds ->
   deterministic replay), and the committed corpus under repro/. *)

let qtest t = QCheck_alcotest.to_alcotest t

(* --- A synthetic system: fast, deterministic, failure-rich ------------- *)

(* A case fails "has_seven" when fault 7 survives, else "ops_heavy"
   when the op total exceeds 60 — two distinct invariants, so shrinking
   must preserve which one it is reducing toward. *)
type syn = { faults : int list; ops : int list; knob : float }

let syn_run c =
  if List.mem 7 c.faults then
    Dst.Harness.Fail { invariant = "has_seven"; detail = "fault 7 armed" }
  else if List.fold_left ( + ) 0 c.ops > 60 then
    Dst.Harness.Fail { invariant = "ops_heavy"; detail = "op total > 60" }
  else Dst.Harness.Pass

let syn_size c =
  {
    Dst.Harness.units = List.length c.faults + List.length c.ops;
    weight = c.knob;
  }

let drop_nth lst n = List.filteri (fun i _ -> i <> n) lst

let syn_candidates c =
  List.init (List.length c.faults) (fun i ->
      { c with faults = drop_nth c.faults i })
  @ List.init (List.length c.ops) (fun i -> { c with ops = drop_nth c.ops i })
  @ (if c.knob > 0.01 then [ { c with knob = c.knob /. 2. } ] else [])

let syn_generate rng =
  {
    faults = List.init (1 + Prob.Rng.int rng 6) (fun _ -> Prob.Rng.int rng 10);
    ops = List.init (Prob.Rng.int rng 8) (fun _ -> Prob.Rng.int rng 30);
    knob = Prob.Rng.float rng;
  }

let ints_json l = Obs.Json.List (List.map (fun i -> Obs.Json.Int i) l)

let ints_of_json doc =
  match Obs.Json.to_list doc with
  | None -> Error "not a list"
  | Some l ->
      List.fold_left
        (fun acc d ->
          Result.bind acc (fun acc ->
              match d with
              | Obs.Json.Int i -> Ok (i :: acc)
              | _ -> Error "not an int"))
        (Ok []) l
      |> Result.map List.rev

let syn_system : syn Dst.Harness.system =
  {
    name = "synthetic";
    generate = syn_generate;
    run = syn_run;
    candidates = syn_candidates;
    size = syn_size;
    faults = (fun c -> List.length c.faults);
    ops = (fun c -> List.length c.ops);
    encode =
      (fun c ->
        {
          Dst.Repro.scenario =
            Obs.Json.Obj [ ("knob", Obs.Json.number c.knob) ];
          plan = Obs.Json.Obj [ ("faults", ints_json c.faults) ];
          ops = ints_json c.ops;
        });
    decode =
      (fun { Dst.Repro.scenario; plan; ops } ->
        let ( let* ) = Result.bind in
        let* knob =
          match
            Option.bind (Obs.Json.member "knob" scenario) Obs.Json.to_float
          with
          | Some v -> Ok v
          | None -> Error "missing knob"
        in
        let* faults =
          match Obs.Json.member "faults" plan with
          | Some l -> ints_of_json l
          | None -> Error "missing faults"
        in
        let* ops = ints_of_json ops in
        Ok { faults; ops; knob });
  }

let syn_failure seed =
  (* Drive soak until it finds a violation; the generator plants fault
     7 often enough that a few hundred episodes always hit one. *)
  match
    Dst.Harness.soak ~shrink:false syn_system ~seed ~episodes:500
  with
  | Dst.Harness.Found { failure; _ } -> failure
  | Dst.Harness.All_passed _ ->
      Alcotest.fail "synthetic generator produced no failure in 500 episodes"

(* --- Shrinker laws (qcheck) -------------------------------------------- *)

let prop_steps_same_invariant =
  QCheck.Test.make ~count:60 ~name:"every accepted reduction fails the same invariant"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let failure = syn_failure seed in
      let shrunk = Dst.Harness.shrink ~log:ignore syn_system failure in
      List.for_all
        (fun step ->
          match syn_run step with
          | Dst.Harness.Fail { invariant; _ } ->
              invariant = failure.Dst.Harness.invariant
          | Dst.Harness.Pass -> false)
        shrunk.Dst.Harness.steps)

let prop_monotone =
  QCheck.Test.make ~count:60 ~name:"measures strictly decrease along the shrink chain"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let failure = syn_failure seed in
      let shrunk = Dst.Harness.shrink ~log:ignore syn_system failure in
      let chain = failure.Dst.Harness.case :: shrunk.Dst.Harness.steps in
      let rec decreasing = function
        | a :: (b :: _ as rest) ->
            Dst.Harness.smaller (syn_size b) (syn_size a) && decreasing rest
        | _ -> true
      in
      decreasing chain)

let prop_shrink_deterministic =
  QCheck.Test.make ~count:60 ~name:"shrink twice = identical minimal case"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let failure = syn_failure seed in
      let a = Dst.Harness.shrink ~log:ignore syn_system failure in
      let b = Dst.Harness.shrink ~log:ignore syn_system failure in
      a.Dst.Harness.final = b.Dst.Harness.final
      && a.Dst.Harness.attempts = b.Dst.Harness.attempts)

let prop_minimal_has_seven =
  QCheck.Test.make ~count:60
    ~name:"has_seven failures shrink to a single armed fault"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let failure = syn_failure seed in
      QCheck.assume (failure.Dst.Harness.invariant = "has_seven");
      let shrunk = Dst.Harness.shrink ~log:ignore syn_system failure in
      shrunk.Dst.Harness.final.faults = [ 7 ]
      && shrunk.Dst.Harness.final.ops = [])

(* An artifact's bytes and what [read] makes of them, through the file
   codec [probcons dst --repro] writes with. *)
let with_repro_file repro f =
  let path = Filename.temp_file "probcons-repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dst.Repro.write ~path repro;
      f path)

let repro_file repro =
  with_repro_file repro (fun path -> In_channel.with_open_bin path In_channel.input_all)

let repro_round_trip repro = with_repro_file repro (fun path -> Dst.Repro.read ~path)

let prop_repro_roundtrip =
  QCheck.Test.make ~count:60 ~name:"repro artifact JSON round-trips"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let failure = syn_failure seed in
      let shrunk = Dst.Harness.shrink ~log:ignore syn_system failure in
      let repro =
        Dst.Harness.to_repro syn_system ~seed ~elapsed_seconds:0.5 failure
          (Some shrunk)
      in
      match repro_round_trip repro with
      | Error msg -> QCheck.Test.fail_reportf "round-trip failed: %s" msg
      | Ok back ->
          back = repro
          && Dst.Harness.replay syn_system back |> Result.is_ok)

(* --- Repro codec rejections -------------------------------------------- *)

let base_repro () =
  let failure = syn_failure 1 in
  let shrunk = Dst.Harness.shrink ~log:ignore syn_system failure in
  Dst.Harness.to_repro syn_system ~seed:1 ~elapsed_seconds:0.25 failure
    (Some shrunk)

let rejects name mutate () =
  let doc =
    match Obs.Json.of_string (repro_file (base_repro ())) with
    | Ok doc -> doc
    | Error msg -> Alcotest.fail msg
  in
  let fields = match doc with Obs.Json.Obj f -> f | _ -> assert false in
  match Dst.Repro.of_json (Obs.Json.Obj (mutate fields)) with
  | Ok _ -> Alcotest.failf "decoder accepted a %s artifact" name
  | Error _ -> ()

let drop key fields = List.filter (fun (k, _) -> k <> key) fields
let set key v fields = (key, v) :: drop key fields

let repro_rejections () =
  rejects "schema-less" (drop "schema") ();
  rejects "wrong-schema" (set "schema" (Obs.Json.String "probcons-repro/9")) ();
  rejects "seed-less" (drop "seed") ();
  rejects "plan-less" (drop "plan") ();
  rejects "invariant-less" (drop "invariant") ();
  rejects "ops-less" (drop "ops") ();
  rejects "non-finite elapsed"
    (set "elapsed_seconds" (Obs.Json.Float Float.infinity))
    ();
  rejects "negative elapsed" (set "elapsed_seconds" (Obs.Json.Float (-1.))) ();
  rejects "bad expect" (set "expect" (Obs.Json.String "maybe")) ()

(* Flipping a found failure's expectation to [`Pass] turns it into a
   regression test; while the bug still reproduces, that test fails. *)
let with_expect_flips () =
  let r = base_repro () in
  Alcotest.(check bool) "found failure replays" true
    (Result.is_ok (Dst.Harness.replay syn_system r));
  Alcotest.(check bool) "flipped expectation fails while the bug stays" false
    (Result.is_ok (Dst.Harness.replay syn_system { r with Dst.Repro.expect = `Pass }))

(* --- Simulator systems -------------------------------------------------- *)

let sim_soak_passes () =
  (* Generated faults stay within each protocol's tolerance, so a
     correct implementation must survive every episode. *)
  List.iter
    (fun proto ->
      let sys = Dst.Sim_case.system proto in
      match Dst.Harness.soak sys ~seed:42 ~episodes:3 with
      | Dst.Harness.All_passed _ -> ()
      | Dst.Harness.Found { failure; _ } ->
          Alcotest.failf "%s episode %d violated %s: %s"
            (Dst.Sim_case.system_name proto)
            failure.Dst.Harness.episode failure.Dst.Harness.invariant
            failure.Dst.Harness.detail)
    [ Dst.Sim_case.Raft; Dst.Sim_case.Pbft; Dst.Sim_case.Benor;
      Dst.Sim_case.Rabia ]

let prop_sim_case_roundtrip =
  QCheck.Test.make ~count:40 ~name:"sim cases survive encode/decode"
    QCheck.(
      pair
        (oneofl
           [ Dst.Sim_case.Raft; Dst.Sim_case.Pbft; Dst.Sim_case.Benor;
             Dst.Sim_case.Rabia ])
        (int_range 0 100_000))
    (fun (proto, seed) ->
      let sys = Dst.Sim_case.system proto in
      let case = sys.Dst.Harness.generate (Prob.Rng.create seed) in
      match sys.Dst.Harness.decode (sys.Dst.Harness.encode case) with
      | Ok back -> back = case
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let sim_decode_rejects () =
  let sys = Dst.Sim_case.system Dst.Sim_case.Raft in
  let case = sys.Dst.Harness.generate (Prob.Rng.create 7) in
  let parts = sys.Dst.Harness.encode case in
  let bad_scenario scenario = { parts with Dst.Repro.scenario } in
  let check name parts =
    match sys.Dst.Harness.decode parts with
    | Ok _ -> Alcotest.failf "sim decoder accepted %s" name
    | Error _ -> ()
  in
  check "byzantine on raft"
    {
      parts with
      Dst.Repro.plan =
        Obs.Json.Obj
          [
            ( "faults",
              Obs.Json.List
                [
                  Obs.Json.Obj
                    [
                      ("node", Obs.Json.Int 0);
                      ("kind", Obs.Json.String "byzantine");
                      ("at", Obs.Json.Int 0);
                    ];
                ] );
          ];
    };
  check "oversized n"
    (bad_scenario
       (Obs.Json.Obj
          [
            ("protocol", Obs.Json.String "raft");
            ("n", Obs.Json.Int 99);
            ("cluster_seed", Obs.Json.Int 1);
            ("drop_probability", Obs.Json.Int 0);
            ("horizon", Obs.Json.Int 60000);
          ]));
  check "plan without faults"
    { parts with Dst.Repro.plan = Obs.Json.Obj [] }

(* --- The seeded-bug acceptance path ------------------------------------- *)

(* The PR-5 'id: 0' regression, re-armed behind Wire.seeded_bug_id0:
   the harness must find it, shrink it under the acceptance bounds
   (<= 3 faults, <= 10 ops), and replay the artifact deterministically.
   Episode 9 of seed 42 is the known first failure; starting from its
   derived seed directly keeps the test to one failing episode. *)
let seeded_bug_found_shrunk_replayed () =
  let service = Dst.Service_case.system ~seeded_bug:true () in
  let eseed = Dst.Harness.episode_seed ~seed:42 ~episode:9 in
  let case = service.Dst.Harness.generate (Prob.Rng.create eseed) in
  match service.Dst.Harness.run case with
  | Dst.Harness.Pass ->
      Alcotest.fail "seeded id:0 bug was not detected by the known episode"
  | Dst.Harness.Fail { invariant; detail } ->
      let failure =
        {
          Dst.Harness.episode = 9; episode_seed = eseed; case; invariant;
          detail;
        }
      in
      let shrunk = Dst.Harness.shrink ~log:ignore service failure in
      let final = shrunk.Dst.Harness.final in
      Alcotest.(check bool)
        "within 3 faults" true
        (service.Dst.Harness.faults final <= 3);
      Alcotest.(check bool)
        "within 10 ops" true
        (List.length final.Dst.Service_case.ops <= 10);
      let repro =
        Dst.Harness.to_repro service ~seed:42 ~elapsed_seconds:1.0 failure
          (Some shrunk)
      in
      let replay () =
        match Dst.Registry.replay repro with
        | Ok msg -> msg
        | Error msg -> Alcotest.failf "replay diverged: %s" msg
      in
      (* Deterministic across two replays: identical confirmation,
         including the failure detail baked into the message. *)
      Alcotest.(check string) "replay deterministic" (replay ()) (replay ())

let process_fault_rejects () =
  let fault_plan kind_fields =
    Obs.Json.Obj
      [
        ( "faults",
          Obs.Json.List
            [
              Obs.Json.Obj
                (("node", Obs.Json.Int 0)
                :: (kind_fields @ [ ("at", Obs.Json.Int 0) ]));
            ] );
      ]
  in
  let process_fields fail_rate recover_rate =
    [
      ("kind", Obs.Json.String "process");
      ("fail_rate", Obs.Json.Float fail_rate);
      ("recover_rate", Obs.Json.Float recover_rate);
    ]
  in
  let check protocol name plan =
    let sys = Dst.Sim_case.system protocol in
    let parts =
      sys.Dst.Harness.encode (sys.Dst.Harness.generate (Prob.Rng.create 7))
    in
    match sys.Dst.Harness.decode { parts with Dst.Repro.plan } with
    | Ok _ -> Alcotest.failf "sim decoder accepted %s" name
    | Error _ -> ()
  in
  (* Process schedules model crash/recover churn, not equivocation:
     only the CFT protocols with restart support take them. *)
  check Dst.Sim_case.Pbft "process fault on pbft"
    (fault_plan (process_fields 1e-4 1e-3));
  check Dst.Sim_case.Benor "process fault on benor"
    (fault_plan (process_fields 1e-4 1e-3));
  check Dst.Sim_case.Raft "zero fail_rate" (fault_plan (process_fields 0. 1e-3));
  check Dst.Sim_case.Raft "negative recover_rate"
    (fault_plan (process_fields 1e-4 (-1.)));
  check Dst.Sim_case.Raft "nan fail_rate"
    (fault_plan (process_fields Float.nan 1e-3))

let process_repro_recovery_dependence () =
  (* The pinned artifact's liveness pass must genuinely hinge on the
     process-faulted node recovering: two permanent crashes leave 2 of
     5, below the majority the liveness invariant demands, so the
     obligation set only reaches 3 because node 4's sampled outages all
     close by the midpoint. *)
  let path =
    let dir =
      List.find_opt Sys.file_exists [ "repro"; "test/repro" ]
      |> Option.value ~default:"repro"
    in
    Filename.concat dir "sim_raft_process_recovery.json"
  in
  match Dst.Repro.read ~path with
  | Error msg -> Alcotest.failf "pinned process repro unreadable: %s" msg
  | Ok r -> (
      Alcotest.(check string) "system" "sim-raft" r.Dst.Repro.system;
      Alcotest.(check string) "invariant" "liveness" r.Dst.Repro.invariant;
      Alcotest.(check bool) "expect pass" true (r.Dst.Repro.expect = `Pass);
      let sys = Dst.Sim_case.system Dst.Sim_case.Raft in
      match sys.Dst.Harness.decode r.Dst.Repro.parts with
      | Error msg -> Alcotest.failf "pinned case does not decode: %s" msg
      | Ok case ->
          Alcotest.(check (list int))
            "liveness depends on node 4 recovering" [ 4 ]
            (Dst.Sim_case.recovered_nodes case);
          let crashed =
            List.filter_map
              (fun f ->
                match f.Dst.Sim_case.kind with
                | Dst.Sim_case.Crash -> Some f.Dst.Sim_case.node
                | _ -> None)
              case.Dst.Sim_case.faults
          in
          Alcotest.(check int)
            "crashes alone leave a minority"
            (case.Dst.Sim_case.n - 3)
            (List.length crashed))

(* --- The committed corpus ----------------------------------------------- *)

let corpus_files () =
  (* cwd is test/ under dune runtest, the repo root under dune exec. *)
  let dir =
    List.find_opt Sys.file_exists [ "repro"; "test/repro" ]
    |> Option.value ~default:"repro"
  in
  match Sys.readdir dir with
  | exception Sys_error _ ->
      Alcotest.fail "test/repro corpus directory is missing"
  | entries ->
      let files =
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort compare
        |> List.map (Filename.concat dir)
      in
      if files = [] then Alcotest.fail "test/repro corpus is empty";
      files

let corpus_replays () =
  List.iter
    (fun path ->
      match Result.bind (Dst.Repro.read ~path) Dst.Registry.replay with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "corpus artifact %s diverged: %s" path msg)
    (corpus_files ())

let corpus_validates () =
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Result.bind (Obs.Json.of_string contents) Dst.Repro.of_json with
      | Ok r ->
          Alcotest.(check bool)
            (path ^ " schema") true
            (Result.map (Obs.Json.member "schema") (Obs.Json.of_string contents)
            = Ok (Some (Obs.Json.String "probcons-repro/1")));
          if r.Dst.Repro.shrunk_units > r.Dst.Repro.original_units then
            Alcotest.failf "%s: shrunk larger than original" path
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    (corpus_files ())

(* --- Fault and op counts ------------------------------------------------ *)

(* The [dst --max-shrunk-*] bounds count through each case's system. *)
let counts_of (repro : Dst.Repro.t) =
  match Dst.Registry.find ~seeded_bug:false repro.Dst.Repro.system with
  | Error msg -> Alcotest.fail msg
  | Ok (Dst.Registry.Packed sys) -> (
      match sys.Dst.Harness.decode repro.Dst.Repro.parts with
      | Error msg -> Alcotest.fail msg
      | Ok case -> (sys.Dst.Harness.faults case, sys.Dst.Harness.ops case))

let replica_counts_kills () =
  (* A replica plan is a bare list of kills: every kill is a fault, and
     so is the partition the scenario may carry. *)
  let sys = Dst.Replica_case.system () in
  let case =
    Seq.ints 0
    |> Seq.map (fun seed -> sys.Dst.Harness.generate (Prob.Rng.create seed))
    |> Seq.find (fun c -> List.length c.Dst.Replica_case.kills >= 2)
    |> Option.get
  in
  let repro =
    Dst.Harness.to_repro sys ~seed:0 ~elapsed_seconds:0.
      { Dst.Harness.episode = 0; episode_seed = 0; case; invariant = "x"; detail = "" }
      None
  in
  let partitions = if case.Dst.Replica_case.partition = None then 0 else 1 in
  Alcotest.(check (pair int int))
    "kills, partition and ops"
    ( List.length case.Dst.Replica_case.kills + partitions,
      List.length case.Dst.Replica_case.ops )
    (counts_of repro)

(* A partition travels in the scenario's JSON, the shrinker can drop
   it, and the decoder refuses one outside the run. *)
let replica_partition_roundtrip () =
  let sys = Dst.Replica_case.system () in
  let case =
    Seq.ints 0
    |> Seq.map (fun seed -> sys.Dst.Harness.generate (Prob.Rng.create seed))
    |> Seq.find (fun c -> c.Dst.Replica_case.partition <> None)
    |> Option.get
  in
  let parts = sys.Dst.Harness.encode case in
  (match sys.Dst.Harness.decode parts with
  | Ok back -> Alcotest.(check bool) "the case round-trips" true (back = case)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool)
    "a candidate drops only the partition" true
    (List.mem { case with Dst.Replica_case.partition = None } (sys.Dst.Harness.candidates case));
  let with_partition p =
    match parts.Dst.Repro.scenario with
    | Obs.Json.Obj fields ->
        {
          parts with
          Dst.Repro.scenario =
            Obs.Json.Obj
              (List.filter (fun (k, _) -> k <> "partition") fields @ [ ("partition", p) ]);
        }
    | _ -> Alcotest.fail "scenario is not an object"
  in
  List.iter
    (fun (what, p) ->
      match sys.Dst.Harness.decode (with_partition p) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" what)
    [
      ( "a partition past the horizon",
        Obs.Json.Obj
          [
            ("node", Obs.Json.Int 0);
            ("from", Obs.Json.number 100.);
            ("until", Obs.Json.number (case.Dst.Replica_case.horizon +. 1.));
          ] );
      ( "a partition ending before it starts",
        Obs.Json.Obj
          [
            ("node", Obs.Json.Int 0);
            ("from", Obs.Json.number 900.);
            ("until", Obs.Json.number 800.);
          ] );
      ( "a partition of a node outside the cluster",
        Obs.Json.Obj
          [
            ("node", Obs.Json.Int case.Dst.Replica_case.n);
            ("from", Obs.Json.number 100.);
            ("until", Obs.Json.number 200.);
          ] );
    ]

let seeded_artifact_counts () =
  let path =
    List.find
      (fun f -> Filename.basename f = "service_id0_seeded.json")
      (corpus_files ())
  in
  match Dst.Repro.read ~path with
  | Error msg -> Alcotest.fail msg
  | Ok repro ->
      Alcotest.(check (pair int int)) "2 faults, 4 ops" (2, 4) (counts_of repro)

let suite =
  [
    qtest prop_steps_same_invariant;
    qtest prop_monotone;
    qtest prop_shrink_deterministic;
    qtest prop_minimal_has_seven;
    qtest prop_repro_roundtrip;
    Alcotest.test_case "repro decoder rejects malformed artifacts" `Quick
      repro_rejections;
    Alcotest.test_case "with_expect flips only the expectation" `Quick
      with_expect_flips;
    Alcotest.test_case "sim soak: all protocols pass within tolerance" `Slow
      sim_soak_passes;
    qtest prop_sim_case_roundtrip;
    Alcotest.test_case "sim decoder rejects out-of-envelope cases" `Quick
      sim_decode_rejects;
    Alcotest.test_case "sim decoder rejects bad process faults" `Quick
      process_fault_rejects;
    Alcotest.test_case "process repro: liveness depends on recovery" `Quick
      process_repro_recovery_dependence;
    Alcotest.test_case "seeded id:0 bug: found, shrunk small, replays" `Slow
      seeded_bug_found_shrunk_replayed;
    Alcotest.test_case "replica case counts its kills as faults" `Quick
      replica_counts_kills;
    Alcotest.test_case "seeded artifact counts 2 faults, 4 ops" `Quick
      seeded_artifact_counts;
    Alcotest.test_case "corpus: every artifact validates" `Quick
      corpus_validates;
    Alcotest.test_case "corpus: every artifact meets its expectation" `Slow
      corpus_replays;
    Alcotest.test_case "replica case carries its partition" `Quick
      replica_partition_roundtrip;
  ]
