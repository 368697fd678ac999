type protocol = Raft | Pbft | Benor | Rabia

type fault_kind =
  | Crash
  | Crash_restart of float
  | Byzantine
  | Process of { fail_rate : float; recover_rate : float }

type fault = { node : int; kind : fault_kind; at : float }

type t = {
  protocol : protocol;
  n : int;
  cluster_seed : int;
  drop_probability : float;
  faults : fault list;
  ops : int list;
  horizon : float;
}

let protocol_name = function
  | Raft -> "raft"
  | Pbft -> "pbft"
  | Benor -> "benor"
  | Rabia -> "rabia"

let protocol_of_name = function
  | "raft" -> Some Raft
  | "pbft" -> Some Pbft
  | "benor" -> Some Benor
  | "rabia" -> Some Rabia
  | _ -> None

let system_name p = "sim-" ^ protocol_name p

(* Bounds shared by the generator and the decoder: a hand-edited
   artifact gets the same sanity envelope as a generated case. *)
let max_n = 16
let max_ops = 64
let max_time = 1e7

(* --- Execution --------------------------------------------------------- *)

(* A process fault's actual fail/recover schedule: sampled from the
   node's own [Rng.of_pair (cluster_seed, node)] stream over the run's
   remaining horizon, shifted to start at the fault's [at]. Purely a
   function of the case, so the shrinker and the replayer see the same
   schedule the run executed. *)
let process_downtime t f ~fail_rate ~recover_rate =
  let rng = Prob.Rng.of_pair t.cluster_seed f.node in
  let horizon = Float.max 0. (t.horizon -. f.at) in
  List.map
    (fun (fail, back) -> (fail +. f.at, Option.map (( +. ) f.at) back))
    (Faultmodel.Failure_process.sample_downtime rng
       (Faultmodel.Failure_process.Markov { fail_rate; recover_rate })
       ~horizon)

let injector_plan t =
  List.concat_map
    (fun f ->
      match f.kind with
      | Crash -> [ (f.node, Dessim.Fault_injector.Crash_at f.at) ]
      | Crash_restart back_at ->
          [ (f.node, Dessim.Fault_injector.Crash_restart { at = f.at; back_at }) ]
      | Byzantine -> [ (f.node, Dessim.Fault_injector.Byzantine_from f.at) ]
      | Process { fail_rate; recover_rate } ->
          Dessim.Fault_injector.of_downtime f.node
            (process_downtime t f ~fail_rate ~recover_rate))
    t.faults

let faulted_nodes faults = List.map (fun f -> f.node) faults

(* Nodes with no fault at all: the set the liveness checkers demand
   progress from, and (with the honest set for PBFT) the agreement
   baseline. *)
let correct_nodes t =
  let faulted = faulted_nodes t.faults in
  List.filter (fun i -> not (List.mem i faulted)) (List.init t.n Fun.id)

(* A process-faulted node whose sampled schedule closes every outage by
   the run's midpoint is back for the whole second half — long enough
   for re-election and catch-up — so it counts toward the liveness
   majority. This is what makes recovery-dependent liveness assertable:
   dynamic faults can keep a cluster live that a static gate (which
   writes every faulted node off forever) would excuse. *)
let recovered_nodes t =
  List.filter_map
    (fun f ->
      match f.kind with
      | Process { fail_rate; recover_rate } ->
          let schedule = process_downtime t f ~fail_rate ~recover_rate in
          let back_by_midpoint = function
            | _, Some back -> back <= t.horizon /. 2.
            | _, None -> false
          in
          if List.for_all back_by_midpoint schedule then Some f.node else None
      | _ -> None)
    t.faults

let fail invariant detail = Harness.Fail { invariant; detail }

let check_violations pairs =
  match List.find_opt (fun (_, ok, _) -> not ok) pairs with
  | None -> Harness.Pass
  | Some (invariant, _, detail) -> fail invariant (detail ())

(* Build the cluster, inject, drive, check. Invariant names:
   ["agreement"], ["election_safety"], ["log_matching"], ["liveness"],
   ["validity"], ["termination"] (per protocol). *)
let run t =
  let correct = correct_nodes t in
  match t.protocol with
  | Raft ->
      let cluster =
        Raft_sim.Raft_cluster.create ~seed:t.cluster_seed
          ~drop_probability:t.drop_probability ~n:t.n ()
      in
      Raft_sim.Raft_cluster.inject cluster (injector_plan t);
      Raft_sim.Raft_cluster.submit_workload cluster ~commands:t.ops ~start:500.
        ~interval:100.;
      Raft_sim.Raft_cluster.run cluster ~until:t.horizon;
      (* Liveness is a guarantee while a majority never fails — or, with
         process faults, recovers for good by the midpoint. Recovered
         nodes join the set the checker demands progress from: they had
         the whole second half to re-elect and catch up. *)
      let live_set =
        List.sort_uniq compare (correct @ recovered_nodes t)
      in
      let r =
        Raft_sim.Raft_checker.check cluster ~expected:t.ops ~correct:live_set
      in
      let detail () = String.concat "; " r.Raft_sim.Raft_checker.violations in
      let live_expected = List.length live_set >= (t.n / 2) + 1 in
      check_violations
        [
          ("agreement", r.Raft_sim.Raft_checker.agreement_ok, detail);
          ("election_safety", r.Raft_sim.Raft_checker.election_safety_ok, detail);
          ("log_matching", r.Raft_sim.Raft_checker.log_matching_ok, detail);
          ( "liveness",
            (not live_expected) || r.Raft_sim.Raft_checker.live,
            detail );
        ]
  | Pbft ->
      let cluster =
        Pbft_sim.Pbft_cluster.create ~seed:t.cluster_seed
          ~drop_probability:t.drop_probability ~n:t.n ()
      in
      Pbft_sim.Pbft_cluster.inject cluster (injector_plan t);
      Pbft_sim.Pbft_cluster.submit_workload cluster ~commands:t.ops ~start:500.
        ~interval:100.;
      Pbft_sim.Pbft_cluster.run cluster ~until:t.horizon;
      let byz =
        List.filter_map
          (fun f -> match f.kind with Byzantine -> Some f.node | _ -> None)
          t.faults
      in
      let honest =
        List.filter (fun i -> not (List.mem i byz)) (List.init t.n Fun.id)
      in
      let r =
        Pbft_sim.Pbft_checker.check cluster ~expected:t.ops ~correct ~honest
      in
      let detail () = String.concat "; " r.Pbft_sim.Pbft_checker.violations in
      let f_max = (t.n - 1) / 3 in
      let live_expected = List.length t.faults <= f_max in
      check_violations
        [
          ("agreement", r.Pbft_sim.Pbft_checker.agreement_ok, detail);
          ("liveness", (not live_expected) || r.Pbft_sim.Pbft_checker.live, detail);
        ]
  | Benor ->
      let cluster =
        Benor_sim.Benor_cluster.create ~seed:t.cluster_seed
          ~drop_probability:t.drop_probability ~common_coin:t.cluster_seed
          ~initial_values:t.ops ()
      in
      Benor_sim.Benor_cluster.inject cluster (injector_plan t);
      Benor_sim.Benor_cluster.run cluster ~until:t.horizon;
      let r = Benor_sim.Benor_cluster.check cluster ~correct in
      let detail () =
        String.concat ", "
          (List.map
             (fun (node, d) ->
               Printf.sprintf "node %d: %s" node
                 (match d with Some v -> string_of_int v | None -> "undecided"))
             r.Benor_sim.Benor_cluster.decisions)
      in
      let tolerated = List.length t.faults <= (t.n - 1) / 2 in
      check_violations
        [
          ("agreement", r.Benor_sim.Benor_cluster.agreement_ok, detail);
          ("validity", r.Benor_sim.Benor_cluster.validity_ok, detail);
          ( "termination",
            (not tolerated) || r.Benor_sim.Benor_cluster.all_correct_decided,
            detail );
        ]
  | Rabia ->
      let cluster =
        Rabia_sim.Rabia_cluster.create ~seed:t.cluster_seed
          ~drop_probability:t.drop_probability ~n:t.n ()
      in
      Rabia_sim.Rabia_cluster.inject cluster (injector_plan t);
      Rabia_sim.Rabia_cluster.submit_workload cluster ~commands:t.ops ~start:500.
        ~interval:100.;
      Rabia_sim.Rabia_cluster.run cluster ~until:t.horizon;
      let live_set = List.sort_uniq compare (correct @ recovered_nodes t) in
      let r =
        Rabia_sim.Rabia_cluster.check cluster ~expected:t.ops ~correct:live_set
      in
      let detail () =
        Printf.sprintf "committed counts: %s; %d null slots"
          (String.concat ","
             (Array.to_list
                (Array.map string_of_int r.Rabia_sim.Rabia_cluster.committed_counts)))
          r.Rabia_sim.Rabia_cluster.null_slots
      in
      let live_expected = List.length live_set >= (t.n / 2) + 1 in
      check_violations
        [
          ("agreement", r.Rabia_sim.Rabia_cluster.agreement_ok, detail);
          ("liveness", (not live_expected) || r.Rabia_sim.Rabia_cluster.live, detail);
        ]

(* --- Generation -------------------------------------------------------- *)

let generate protocol rng =
  let n =
    match protocol with
    | Pbft -> 4 + Prob.Rng.int rng 4 (* 4..7: quorum defaults need n >= 4 *)
    | _ -> 3 + Prob.Rng.int rng 5 (* 3..7 *)
  in
  let f_max = match protocol with Pbft -> (n - 1) / 3 | _ -> (n - 1) / 2 in
  let fault_count = Prob.Rng.int rng (f_max + 1) in
  let nodes = Prob.Rng.sample_without_replacement rng fault_count n in
  let faults =
    List.map
      (fun node ->
        let at = Prob.Rng.float rng *. 3000. in
        let kind =
          match protocol with
          | Pbft ->
              (* The BFT system draws Byzantine conversions too. *)
              if Prob.Rng.bool rng 0.5 then Byzantine else Crash
          | Benor ->
              if Prob.Rng.bool rng 0.3 then
                Crash_restart (at +. 5000. +. (Prob.Rng.float rng *. 10_000.))
              else Crash
          | Raft | Rabia ->
              (* Crash-fault systems also draw process-driven fail/recover
                 schedules: short mean time to failure, shorter mean time
                 to recovery, so most schedules cycle within the run. *)
              let roll = Prob.Rng.float rng in
              if roll < 0.3 then
                Crash_restart (at +. 5000. +. (Prob.Rng.float rng *. 10_000.))
              else if roll < 0.55 then
                Process
                  {
                    fail_rate = 1. /. (3000. +. (Prob.Rng.float rng *. 9000.));
                    recover_rate = 1. /. (1500. +. (Prob.Rng.float rng *. 4500.));
                  }
              else Crash
        in
        { node; kind; at })
      nodes
  in
  let drop_probability =
    if Prob.Rng.bool rng 0.3 then Prob.Rng.float rng *. 0.02 else 0.
  in
  let ops =
    match protocol with
    | Benor -> List.init n (fun _ -> Prob.Rng.int rng 2)
    | _ -> List.init (1 + Prob.Rng.int rng 12) (fun i -> 1000 + i)
  in
  let horizon = match protocol with Benor -> 1e7 | _ -> 60_000. in
  {
    protocol;
    n;
    cluster_seed = Prob.Rng.int rng 1_000_000_000;
    drop_probability;
    faults;
    ops;
    horizon;
  }

(* --- Size and shrinking ------------------------------------------------- *)

let size t =
  let op_units =
    (* Ben-Or's ops are the fixed per-node inputs, not a trace. *)
    match t.protocol with Benor -> 0 | _ -> List.length t.ops
  in
  {
    Harness.units = List.length t.faults + op_units;
    weight =
      (t.drop_probability *. 100.)
      +. List.fold_left (fun acc f -> acc +. (f.at /. 1e6)) 0. t.faults;
  }

let drop_nth lst n = List.filteri (fun i _ -> i <> n) lst

let candidates t =
  let with_faults faults = { t with faults } in
  let with_ops ops = { t with ops } in
  let fault_drops =
    List.init (List.length t.faults) (fun i -> with_faults (drop_nth t.faults i))
  in
  let op_drops =
    match t.protocol with
    | Benor -> []
    | _ ->
        let len = List.length t.ops in
        let halves =
          if len >= 2 then [ with_ops (List.filteri (fun i _ -> i < len / 2) t.ops) ]
          else []
        in
        let singles =
          if len >= 1 && len <= 8 then
            List.init len (fun i -> with_ops (drop_nth t.ops i))
          else if len >= 2 then [ with_ops (drop_nth t.ops (len - 1)) ]
          else []
        in
        halves @ singles
    in
  let weight_cuts =
    (if t.drop_probability > 0. then [ { t with drop_probability = 0. } ] else [])
    @
    if List.exists (fun f -> f.at > 0.) t.faults then
      [
        {
          t with
          faults =
            List.map
              (fun f ->
                let kind =
                  match f.kind with
                  | Crash_restart back_at -> Crash_restart (back_at -. f.at)
                  | k -> k
                in
                { f with at = 0.; kind })
              t.faults;
        };
      ]
    else []
  in
  (* Structure first (halving before single drops), knobs last. *)
  (match t.protocol with
  | Benor -> fault_drops
  | _ ->
      (match op_drops with h :: _ -> [ h ] | [] -> [])
      @ fault_drops
      @ (match op_drops with _ :: rest -> rest | [] -> []))
  @ weight_cuts

(* --- JSON codec --------------------------------------------------------- *)

let kind_fields = function
  | Crash -> [ ("kind", Obs.Json.String "crash") ]
  | Crash_restart back_at ->
      [ ("kind", Obs.Json.String "crash_restart");
        ("back_at", Obs.Json.number back_at) ]
  | Byzantine -> [ ("kind", Obs.Json.String "byzantine") ]
  | Process { fail_rate; recover_rate } ->
      [ ("kind", Obs.Json.String "process");
        ("fail_rate", Obs.Json.number fail_rate);
        ("recover_rate", Obs.Json.number recover_rate) ]

let encode t =
  {
    Repro.scenario =
      Obs.Json.Obj
        [
          ("protocol", Obs.Json.String (protocol_name t.protocol));
          ("n", Obs.Json.Int t.n);
          ("cluster_seed", Obs.Json.Int t.cluster_seed);
          ("drop_probability", Obs.Json.number t.drop_probability);
          ("horizon", Obs.Json.number t.horizon);
        ];
    plan =
      Obs.Json.Obj
        [
          ( "faults",
            Obs.Json.List
              (List.map
                 (fun f ->
                   Obs.Json.Obj
                     ([ ("node", Obs.Json.Int f.node) ]
                     @ kind_fields f.kind
                     @ [ ("at", Obs.Json.number f.at) ]))
                 t.faults) );
        ];
    ops = Obs.Json.List (List.map (fun c -> Obs.Json.Int c) t.ops);
  }

let decode { Repro.scenario; plan; ops } =
  let ( let* ) = Result.bind in
  let int_of name doc =
    match Obs.Json.member name doc with
    | Some (Obs.Json.Int i) -> Ok i
    | _ -> Error ("missing integer " ^ name)
  in
  let finite_of name doc =
    match Option.bind (Obs.Json.member name doc) Obs.Json.to_float with
    | Some v when Float.is_finite v && v >= 0. -> Ok v
    | Some _ -> Error (name ^ " must be finite and non-negative")
    | None -> Error ("missing numeric " ^ name)
  in
  let* protocol =
    match
      Option.bind (Obs.Json.member "protocol" scenario) Obs.Json.to_string_opt
    with
    | Some name -> (
        match protocol_of_name name with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unknown protocol %S" name))
    | None -> Error "missing protocol"
  in
  let* n = int_of "n" scenario in
  let* () =
    if n >= 1 && n <= max_n then Ok ()
    else Error (Printf.sprintf "n must be in 1..%d" max_n)
  in
  let* cluster_seed = int_of "cluster_seed" scenario in
  let* drop_probability = finite_of "drop_probability" scenario in
  let* () =
    if drop_probability <= 1. then Ok ()
    else Error "drop_probability must be a probability"
  in
  let* horizon = finite_of "horizon" scenario in
  let* () =
    if horizon > 0. && horizon <= max_time then Ok ()
    else Error (Printf.sprintf "horizon must be in (0, %g]" max_time)
  in
  let* fault_docs =
    match Option.bind (Obs.Json.member "faults" plan) Obs.Json.to_list with
    | Some l -> Ok l
    | None -> Error "plan must carry a faults list"
  in
  let* faults =
    List.fold_left
      (fun acc doc ->
        let* acc = acc in
        let* node = int_of "node" doc in
        let* () =
          if node >= 0 && node < n then Ok ()
          else Error (Printf.sprintf "fault node %d out of range" node)
        in
        let* at = finite_of "at" doc in
        let* () =
          if at <= max_time then Ok () else Error "fault time out of range"
        in
        let* kind =
          match
            Option.bind (Obs.Json.member "kind" doc) Obs.Json.to_string_opt
          with
          | Some "crash" -> Ok Crash
          | Some "crash_restart" ->
              let* back_at = finite_of "back_at" doc in
              if back_at >= at && back_at <= max_time then Ok (Crash_restart back_at)
              else Error "back_at must lie in [at, horizon bound]"
          | Some "byzantine" ->
              if protocol = Pbft then Ok Byzantine
              else Error "byzantine faults are PBFT-only"
          | Some "process" ->
              if protocol <> Raft && protocol <> Rabia then
                Error "process faults apply to raft and rabia only"
              else
                let* fail_rate = finite_of "fail_rate" doc in
                let* recover_rate = finite_of "recover_rate" doc in
                if
                  fail_rate > 0. && fail_rate <= 1. && recover_rate > 0.
                  && recover_rate <= 1.
                then Ok (Process { fail_rate; recover_rate })
                else
                  Error
                    "process rates must be positive and at most 1 per time unit"
          | Some other -> Error (Printf.sprintf "unknown fault kind %S" other)
          | None -> Error "fault missing kind"
        in
        Ok ({ node; kind; at } :: acc))
      (Ok []) fault_docs
  in
  let faults = List.rev faults in
  let* () =
    let nodes = List.map (fun f -> f.node) faults in
    if List.length (List.sort_uniq compare nodes) = List.length nodes then Ok ()
    else Error "duplicate fault node"
  in
  let* op_docs =
    match Obs.Json.to_list ops with
    | Some l -> Ok l
    | None -> Error "ops must be a list"
  in
  let* ops =
    List.fold_left
      (fun acc doc ->
        let* acc = acc in
        match doc with
        | Obs.Json.Int i -> Ok (i :: acc)
        | _ -> Error "ops must be integers")
      (Ok []) op_docs
  in
  let ops = List.rev ops in
  let* () =
    match protocol with
    | Benor ->
        if List.length ops = n && List.for_all (fun v -> v = 0 || v = 1) ops then
          Ok ()
        else Error "benor ops must be n binary initial values"
    | _ ->
        if List.length ops <= max_ops then Ok ()
        else Error (Printf.sprintf "at most %d ops" max_ops)
  in
  Ok { protocol; n; cluster_seed; drop_probability; faults; ops; horizon }

let system protocol =
  {
    Harness.name = system_name protocol;
    generate = generate protocol;
    run;
    candidates;
    size;
    faults = (fun t -> List.length t.faults);
    ops = (fun t -> List.length t.ops);
    encode;
    decode;
  }
