(* Schema check for CI-archived JSON artifacts, dispatched on the
   top-level schema tag:

   - probcons-loadgen/3     the service load generator's --json
     artifact: a per-error-code breakdown, pipeline depth and a
     warmup/measured-window split; the measured window must be at
     least one second, so a throughput number can never come from a
     sub-second burst
   - probcons-chaos/1       the chaos soak harness: fault plan +
     injection counts + the embedded loadgen report + the drain check;
     a soak sends a fixed request count and claims no throughput, so
     its report may be shorter than a second
   - probcons-repro/1       the DST harness's minimal-reproduction
     artifact: seeds, system tag, scenario, fault plan, op trace,
     violated invariant, expectation, shrink statistics
   - probcons-repl-avail/1  the replicated deployment's measured
     availability against the analytical prediction, within the
     artifact's tolerance and with no acknowledged write lost

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

let validate_loadgen ~min_elapsed path doc =
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
  (match num "elapsed_seconds" doc with
  | Some v when Float.is_finite v && v >= min_elapsed -> ()
  | Some v -> fail "elapsed_seconds must be at least %gs, got %g" min_elapsed v
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
  | Some "probcons-loadgen/3" ->
      validate_loadgen ~min_elapsed:0. (path ^ "#loadgen") loadgen
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

(* --- probcons-repl-avail/1 ----------------------------------------------- *)

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
  | Some "probcons-loadgen/3" ->
      (* Throughput claims need a real measurement window behind them. *)
      validate_loadgen ~min_elapsed:1.0 path doc
  | Some "probcons-chaos/1" -> validate_chaos path doc
  | Some "probcons-repro/1" -> validate_repro path doc
  | Some "probcons-repl-avail/1" -> validate_repl_avail path doc
  | Some other -> fail "unexpected schema %S" other
  | None -> fail "missing schema tag"
