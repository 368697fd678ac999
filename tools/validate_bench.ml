(* Schema check for CI-archived JSON artifacts, dispatched on the
   top-level schema tag:

   - probcons-bench/2    the bench harness's --json artifact
   - probcons-loadgen/3  the service load generator's --json artifact:
     a per-error-code breakdown, pipeline depth and a
     warmup/measured-window split; the measured window must be at
     least one second, so a throughput number can never come from a
     sub-second burst
   - probcons-chaos/1    the chaos soak harness: fault plan + injection
     counts + the embedded loadgen report + the drain check
   - probcons-repro/1    the DST harness's minimal-reproduction
     artifact: seeds, system tag, scenario, fault plan, op trace,
     violated invariant, expectation, shrink statistics
   - probcons-fleet-bench/1  the incremental Poisson-binomial engine's
     update-vs-recompute comparison: paired rows per fleet size, and at
     every size >= 10^4 the incremental kernel must beat the full
     recompute by at least 10x

   CI runs this against each before archiving; a non-zero exit fails
   the workflow rather than shipping a malformed artifact. *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let str key doc = Option.bind (Obs.Json.member key doc) Obs.Json.to_string_opt
let num key doc = Option.bind (Obs.Json.member key doc) Obs.Json.to_float
let int_field key doc =
  match Obs.Json.member key doc with Some (Obs.Json.Int i) -> Some i | _ -> None

(* --- probcons-bench/2 -------------------------------------------------- *)

(* Rows may reference the committed scenario file they were driven by
   (repo-relative, e.g. "bench/scenarios/p2_sim.json"). Each referenced
   file must exist — resolved against the cwd, falling back to the
   artifact's own directory — and parse under [Probcons.Scenario.of_string],
   so a bench artifact can't ship pointing at a stale or malformed spec.
   Results are memoized: artifacts reference the same few files many
   times. *)
let scenario_cache : (string, unit) Hashtbl.t = Hashtbl.create 8

let check_scenario_ref artifact_path i ref_path =
  if not (Hashtbl.mem scenario_cache ref_path) then begin
    let candidates =
      [ ref_path; Filename.concat (Filename.dirname artifact_path) ref_path ]
    in
    let resolved =
      match List.find_opt Sys.file_exists candidates with
      | Some p -> p
      | None -> fail "row %d: scenario file %S not found" i ref_path
    in
    (match Probcons.Scenario.of_string (read_file resolved) with
    | Ok _ -> ()
    | Error msg -> fail "row %d: scenario %S: %s" i ref_path msg);
    Hashtbl.add scenario_cache ref_path ()
  end

let check_row artifact_path i row =
  (match str "kernel" row with
  | Some _ -> ()
  | None -> fail "row %d: missing kernel" i);
  (match Obs.Json.member "scenario" row with
  | None -> ()
  | Some (Obs.Json.String ref_path) ->
      check_scenario_ref artifact_path i ref_path
  | Some _ -> fail "row %d: scenario must be a string path" i);
  match num "ns_per_run" row with
  | Some v when Float.is_finite v && v > 0. -> ()
  | Some v -> fail "row %d: ns_per_run not finite and positive (%g)" i v
  | None -> fail "row %d: missing numeric ns_per_run" i

let validate_bench path doc =
  let rows =
    match Option.bind (Obs.Json.member "rows" doc) Obs.Json.to_list with
    | Some [] -> fail "rows is empty"
    | Some rows -> rows
    | None -> fail "missing rows list"
  in
  List.iteri (check_row path) rows;
  match Obs.Json.member "metrics" doc with
  | None -> fail "missing metrics snapshot"
  | Some metrics -> (
      match Obs.Metrics.of_json metrics with
      | Error msg -> fail "metrics snapshot: %s" msg
      | Ok [] -> fail "metrics snapshot is empty"
      | Ok samples ->
          Printf.printf "%s: OK (%d rows, %d metric samples, %d scenario refs)\n"
            path (List.length rows) (List.length samples)
            (Hashtbl.length scenario_cache))

(* --- probcons-loadgen/3 ------------------------------------------------ *)

(* errors_by_code: an object of non-negative per-code counts that must
   sum to the errors total — the soak harness keys its pass/fail
   decision on which codes appear, so a malformed breakdown is a schema
   failure, not a cosmetic one. *)
let check_errors_by_code doc errors =
  match Obs.Json.member "errors_by_code" doc with
  | Some (Obs.Json.Obj fields) ->
      let sum =
        List.fold_left
          (fun acc (name, v) ->
            match v with
            | Obs.Json.Int n when n > 0 -> acc + n
            | Obs.Json.Int n ->
                fail "errors_by_code.%s must be positive, got %d" name n
            | _ -> fail "errors_by_code.%s must be an integer" name)
          0 fields
      in
      if sum <> errors then
        fail "errors_by_code sums to %d but errors is %d" sum errors
  | Some _ -> fail "errors_by_code must be an object"
  | None -> fail "missing errors_by_code"

let validate_loadgen path doc =
  let require_int key =
    match int_field key doc with
    | Some i when i >= 0 -> i
    | Some i -> fail "%s must be non-negative, got %d" key i
    | None -> fail "missing integer %s" key
  in
  (match str "wire" doc with
  | Some _ -> ()
  | None -> fail "missing wire protocol name");
  let clients = require_int "clients" in
  let total = require_int "requests_total" in
  let ok = require_int "ok" in
  let errors = require_int "errors" in
  let mismatches = require_int "mismatches" in
  if clients < 1 then fail "clients must be positive";
  if total < 1 then fail "requests_total must be positive";
  if ok + errors <> total then
    fail "ok (%d) + errors (%d) does not account for requests_total (%d)" ok
      errors total;
  check_errors_by_code doc errors;
  (match int_field "wire_version" doc with
  | Some 3 -> ()
  | Some v -> fail "wire_version must be 3, got %d" v
  | None -> fail "missing integer wire_version");
  (match int_field "pipeline" doc with
  | Some p when p >= 1 -> ()
  | Some p -> fail "pipeline must be positive, got %d" p
  | None -> fail "missing integer pipeline");
  (match num "warmup_seconds" doc with
  | Some v when Float.is_finite v && v >= 0. -> ()
  | Some v -> fail "warmup_seconds not finite and non-negative (%g)" v
  | None -> fail "missing numeric warmup_seconds");
  (* Throughput claims need a real measurement window behind them. *)
  (match num "elapsed_seconds" doc with
  | Some v when Float.is_finite v && v >= 1.0 -> ()
  | Some v -> fail "elapsed_seconds must be at least 1.0s, got %g" v
  | None -> fail "missing numeric elapsed_seconds");
  (match num "throughput_rps" doc with
  | Some v when Float.is_finite v && v > 0. -> ()
  | Some v -> fail "throughput_rps not finite and positive (%g)" v
  | None -> fail "missing numeric throughput_rps");
  let latency =
    match Obs.Json.member "latency_seconds" doc with
    | Some (Obs.Json.Obj _ as l) -> l
    | Some _ -> fail "latency_seconds must be an object"
    | None -> fail "missing latency_seconds"
  in
  List.iter
    (fun key ->
      match num key latency with
      | Some v when Float.is_finite v && v >= 0. -> ()
      | Some v -> fail "latency_seconds.%s not finite (%g)" key v
      | None -> fail "missing numeric latency_seconds.%s" key)
    [ "p50"; "p90"; "p99"; "max" ];
  Printf.printf "%s: OK (%d clients, %d requests, %d errors, %d mismatches)\n"
    path clients total errors mismatches

(* --- probcons-chaos/1 --------------------------------------------------- *)

let validate_chaos path doc =
  let chaos =
    match Obs.Json.member "chaos" doc with
    | Some (Obs.Json.Obj _ as c) -> c
    | Some _ -> fail "chaos must be an object"
    | None -> fail "missing chaos report"
  in
  (match Obs.Json.member "plan" chaos with
  | None -> fail "missing chaos.plan"
  | Some plan -> (
      match Service.Chaos.plan_of_json plan with
      | Ok _ -> ()
      | Error msg -> fail "chaos.plan: %s" msg));
  let fault_count =
    match Obs.Json.member "counts" chaos with
    | Some (Obs.Json.Obj fields) ->
        List.iter
          (fun (name, v) ->
            match v with
            | Obs.Json.Int n when n >= 0 -> ()
            | Obs.Json.Int n ->
                fail "chaos.counts.%s must be non-negative, got %d" name n
            | _ -> fail "chaos.counts.%s must be an integer" name)
          fields;
        List.length fields
    | Some _ -> fail "chaos.counts must be an object"
    | None -> fail "missing chaos.counts"
  in
  (match Obs.Json.member "drained" doc with
  | Some (Obs.Json.Bool _) -> ()
  | Some _ -> fail "drained must be a boolean"
  | None -> fail "missing drained flag");
  (match int_field "connections_after" doc with
  | Some n when n >= 0 -> ()
  | Some n -> fail "connections_after must be non-negative, got %d" n
  | None -> fail "missing integer connections_after");
  let loadgen =
    match Obs.Json.member "loadgen" doc with
    | Some l -> l
    | None -> fail "missing embedded loadgen report"
  in
  (match str "schema" loadgen with
  | Some "probcons-loadgen/3" -> validate_loadgen (path ^ "#loadgen") loadgen
  | Some other -> fail "embedded loadgen has schema %S, want probcons-loadgen/3" other
  | None -> fail "embedded loadgen is missing its schema tag");
  Printf.printf "%s: OK (chaos soak, %d fault counters)\n" path fault_count

(* --- probcons-repro/1 ---------------------------------------------------- *)

(* The schema lives with the harness: [Dst.Repro.of_json] is total and
   rejects a wrong tag, missing seed/plan/invariant/ops fields, and
   non-finite timings — validating here with the same decoder the
   replay path uses means an artifact this tool accepts is one
   [tools/replay.exe] can actually load. *)
let validate_repro path doc =
  match Dst.Repro.of_json doc with
  | Error msg -> fail "%s" msg
  | Ok r ->
      if r.Dst.Repro.shrunk_units > r.Dst.Repro.original_units then
        fail "shrunk_units (%d) exceeds original_units (%d)"
          r.Dst.Repro.shrunk_units r.Dst.Repro.original_units;
      (match Dst.Registry.expand r.Dst.Repro.system with
      | Ok _ -> ()
      | Error msg -> fail "%s" msg);
      Printf.printf
        "%s: OK (repro: system %s, invariant %s, expect %s, %d -> %d units \
         in %d shrink attempts)\n"
        path r.Dst.Repro.system r.Dst.Repro.invariant
        (match r.Dst.Repro.expect with `Fail -> "fail" | `Pass -> "pass")
        r.Dst.Repro.original_units r.Dst.Repro.shrunk_units
        r.Dst.Repro.shrink_attempts

(* --- probcons-fleet-bench/1 ---------------------------------------------- *)

(* Paired rows per fleet size: an "incremental-update" row (sustained
   O(n) engine updates, drift refreshes included and counted) and a
   "full-recompute" row (from-scratch O(n^2) DP). The artifact is a
   performance claim — the whole point of the incremental engine — so
   the claim is checked: at every size >= 10^4 the incremental kernel
   must be at least 10x faster per operation. *)
let fleet_speedup_floor = 10.
let fleet_speedup_min_n = 10_000

let validate_fleet_bench path doc =
  (match num "drift_bound" doc with
  | Some v when Float.is_finite v && v >= 0. -> ()
  | Some v -> fail "drift_bound not finite and non-negative (%g)" v
  | None -> fail "missing numeric drift_bound");
  let rows =
    match Option.bind (Obs.Json.member "rows" doc) Obs.Json.to_list with
    | Some [] -> fail "rows is empty"
    | Some rows -> rows
    | None -> fail "missing rows list"
  in
  let per_size = Hashtbl.create 8 in
  List.iteri
    (fun i row ->
      let n =
        match int_field "n" row with
        | Some n when n >= 1 -> n
        | Some n -> fail "row %d: n must be positive, got %d" i n
        | None -> fail "row %d: missing integer n" i
      in
      let kernel =
        match str "kernel" row with
        | Some ("incremental-update" | "full-recompute") as k -> Option.get k
        | Some other -> fail "row %d: unknown kernel %S" i other
        | None -> fail "row %d: missing kernel" i
      in
      (match int_field "ops" row with
      | Some ops when ops >= 1 -> ()
      | _ -> fail "row %d: ops must be a positive integer" i);
      (match int_field "refreshes" row with
      | Some r when r >= 0 -> ()
      | _ -> fail "row %d: refreshes must be a non-negative integer" i);
      let ns =
        match num "ns_per_op" row with
        | Some v when Float.is_finite v && v > 0. -> v
        | Some v -> fail "row %d: ns_per_op not finite and positive (%g)" i v
        | None -> fail "row %d: missing numeric ns_per_op" i
      in
      (match num "ops_per_sec" row with
      | Some v when Float.is_finite v && v > 0. -> ()
      | Some v -> fail "row %d: ops_per_sec not finite and positive (%g)" i v
      | None -> fail "row %d: missing numeric ops_per_sec" i);
      if Hashtbl.mem per_size (n, kernel) then
        fail "row %d: duplicate (%d, %s) row" i n kernel;
      Hashtbl.replace per_size (n, kernel) ns)
    rows;
  let sizes =
    Hashtbl.fold (fun (n, _) _ acc -> if List.mem n acc then acc else n :: acc)
      per_size []
    |> List.sort compare
  in
  let checked =
    List.map
      (fun n ->
        let lookup kernel =
          match Hashtbl.find_opt per_size (n, kernel) with
          | Some ns -> ns
          | None -> fail "n=%d: missing %S row" n kernel
        in
        let inc = lookup "incremental-update" in
        let full = lookup "full-recompute" in
        let speedup = full /. inc in
        if n >= fleet_speedup_min_n && speedup < fleet_speedup_floor then
          fail
            "n=%d: incremental (%.0f ns/op) is only %.1fx the full recompute \
             (%.0f ns/op); the floor is %.0fx"
            n inc speedup full fleet_speedup_floor;
        (n, speedup))
      sizes
  in
  Printf.printf "%s: OK (fleet bench, %d sizes: %s)\n" path (List.length sizes)
    (String.concat ", "
       (List.map
          (fun (n, s) -> Printf.sprintf "n=%d %.0fx" n s)
          checked))

(* --- probcons-dynamic-bench/1 -------------------------------------------- *)

(* Paired rows per fleet size: a "horizon-exact" row (from-scratch DP
   every trajectory round) and a "horizon-incremental" row (changed
   rounds through the incremental Poisson-binomial engine). Two claims
   are archived and both are checked: at every size >= 100 the
   incremental kernel is at least 5x faster per round, and its
   trajectory never deviates from the exact one by more than 1e-9 in
   p_live. *)
let dynamic_speedup_floor = 5.
let dynamic_speedup_min_n = 100
let dynamic_max_diff = 1e-9

let validate_dynamic_bench path doc =
  (match num "horizon" doc with
  | Some v when Float.is_finite v && v > 0. -> ()
  | Some v -> fail "horizon not finite and positive (%g)" v
  | None -> fail "missing numeric horizon");
  let rows =
    match Option.bind (Obs.Json.member "rows" doc) Obs.Json.to_list with
    | Some [] -> fail "rows is empty"
    | Some rows -> rows
    | None -> fail "missing rows list"
  in
  let per_size = Hashtbl.create 8 in
  List.iteri
    (fun i row ->
      let n =
        match int_field "n" row with
        | Some n when n >= 1 -> n
        | Some n -> fail "row %d: n must be positive, got %d" i n
        | None -> fail "row %d: missing integer n" i
      in
      let kernel =
        match str "kernel" row with
        | Some ("horizon-exact" | "horizon-incremental") as k -> Option.get k
        | Some other -> fail "row %d: unknown kernel %S" i other
        | None -> fail "row %d: missing kernel" i
      in
      (match int_field "rounds" row with
      | Some r when r >= 1 -> ()
      | _ -> fail "row %d: rounds must be a positive integer" i);
      let ms =
        match num "ms_per_round" row with
        | Some v when Float.is_finite v && v > 0. -> v
        | Some v ->
            fail "row %d: ms_per_round not finite and positive (%g)" i v
        | None -> fail "row %d: missing numeric ms_per_round" i
      in
      (match num "rounds_per_sec" row with
      | Some v when Float.is_finite v && v > 0. -> ()
      | Some v ->
          fail "row %d: rounds_per_sec not finite and positive (%g)" i v
      | None -> fail "row %d: missing numeric rounds_per_sec" i);
      (match num "max_diff" row with
      | Some v when Float.is_finite v && v >= 0. && v <= dynamic_max_diff -> ()
      | Some v ->
          fail
            "row %d: max_diff %g outside [0, %g] — the incremental \
             trajectory drifted from the exact one"
            i v dynamic_max_diff
      | None -> fail "row %d: missing numeric max_diff" i);
      if Hashtbl.mem per_size (n, kernel) then
        fail "row %d: duplicate (%d, %s) row" i n kernel;
      Hashtbl.replace per_size (n, kernel) ms)
    rows;
  let sizes =
    Hashtbl.fold (fun (n, _) _ acc -> if List.mem n acc then acc else n :: acc)
      per_size []
    |> List.sort compare
  in
  let checked =
    List.map
      (fun n ->
        let lookup kernel =
          match Hashtbl.find_opt per_size (n, kernel) with
          | Some ms -> ms
          | None -> fail "n=%d: missing %S row" n kernel
        in
        let inc = lookup "horizon-incremental" in
        let exact = lookup "horizon-exact" in
        let speedup = exact /. inc in
        if n >= dynamic_speedup_min_n && speedup < dynamic_speedup_floor then
          fail
            "n=%d: incremental (%.3f ms/round) is only %.1fx the exact \
             kernel (%.3f ms/round); the floor is %.0fx"
            n inc speedup exact dynamic_speedup_floor;
        (n, speedup))
      sizes
  in
  Printf.printf "%s: OK (dynamic bench, %d sizes: %s)\n" path
    (List.length sizes)
    (String.concat ", "
       (List.map
          (fun (n, s) -> Printf.sprintf "n=%d %.0fx" n s)
          checked))

(* The replication-availability artifact (probcons replicate --measure):
   measured per-window success rates against the analytical prediction.
   The gate is the experiment's own tolerance — plus the absolute
   claim that no acknowledged write was lost. *)
let repl_avail_min_windows = 3

let validate_repl_avail path doc =
  (match int_field "replicas" doc with
  | Some n when n >= 1 && n <= 9 -> ()
  | Some n -> fail "replicas %d outside [1, 9]" n
  | None -> fail "missing integer replicas");
  (match Obs.Json.member "process" doc with
  | Some p -> (
      match Faultmodel.Failure_process.of_json p with
      | Ok _ -> ()
      | Error msg -> fail "bad process: %s" msg)
  | None -> fail "missing process");
  let tolerance =
    match num "tolerance" doc with
    | Some v when Float.is_finite v && v > 0. && v <= 1. -> v
    | Some v -> fail "tolerance not in (0, 1] (%g)" v
    | None -> fail "missing numeric tolerance"
  in
  let windows =
    match Option.bind (Obs.Json.member "windows" doc) Obs.Json.to_list with
    | Some l when List.length l >= repl_avail_min_windows -> l
    | Some l ->
        fail "only %d windows; need at least %d" (List.length l)
          repl_avail_min_windows
    | None -> fail "missing windows list"
  in
  List.iteri
    (fun i w ->
      let prob key =
        match num key w with
        | Some v when Float.is_finite v && v >= 0. && v <= 1. -> v
        | Some v -> fail "window %d: %s %g outside [0, 1]" i key v
        | None -> fail "window %d: missing numeric %s" i key
      in
      ignore (prob "measured");
      ignore (prob "predicted");
      match (int_field "ok" w, int_field "total" w) with
      | Some ok, Some total when ok >= 0 && ok <= total && total >= 1 -> ()
      | _ -> fail "window %d: need integers 0 <= ok <= total" i)
    windows;
  let abs_error =
    match num "abs_error" doc with
    | Some v when Float.is_finite v && v >= 0. -> v
    | Some v -> fail "abs_error not finite and non-negative (%g)" v
    | None -> fail "missing numeric abs_error"
  in
  if abs_error > tolerance then
    fail
      "measured availability diverged from the prediction: abs_error %.4f > \
       tolerance %g"
      abs_error tolerance;
  (match int_field "writes_acked" doc with
  | Some n when n >= 1 -> ()
  | Some n -> fail "writes_acked %d — the run never acknowledged a write" n
  | None -> fail "missing integer writes_acked");
  (match int_field "writes_lost" doc with
  | Some 0 -> ()
  | Some n -> fail "%d acknowledged writes lost" n
  | None -> fail "missing integer writes_lost");
  (match int_field "kills" doc with
  | Some n when n >= 1 -> ()
  | Some n -> fail "kills %d — the schedule never exercised a failure" n
  | None -> fail "missing integer kills");
  Printf.printf "%s: OK (repl-avail, %d windows, abs_error %.4f <= %g)\n" path
    (List.length windows) abs_error tolerance

(* --- Dispatch ----------------------------------------------------------- *)

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
        prerr_endline "usage: validate_bench FILE.json";
        exit 2
  in
  let doc =
    match Obs.Json.of_string (read_file path) with
    | Ok doc -> doc
    | Error msg -> fail "%s: %s" path msg
  in
  match str "schema" doc with
  | Some "probcons-bench/2" -> validate_bench path doc
  | Some "probcons-loadgen/3" -> validate_loadgen path doc
  | Some "probcons-chaos/1" -> validate_chaos path doc
  | Some "probcons-repro/1" -> validate_repro path doc
  | Some "probcons-fleet-bench/1" -> validate_fleet_bench path doc
  | Some "probcons-dynamic-bench/1" -> validate_dynamic_bench path doc
  | Some "probcons-repl-avail/1" -> validate_repl_avail path doc
  | Some other -> fail "unexpected schema %S" other
  | None -> fail "missing schema tag"
