(* What one run reports: the gated end-to-end metrics, the per-layer
   metrics of a traced run, workload-specific figures, the host record,
   and the final result line the benchmark contract asks for. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;  (** Failed, refused or wrong replies. *)
  problems : string list;  (** Why the run is not correct; empty when it is. *)
  end_to_end : metric list;
  figures : metric list;
      (** Workload-specific end-to-end figures (per-operation latencies,
          failover gaps, sample counts) printed beside the gated ones. *)
  layers : metric list;  (** Traced runs only. *)
  detail : (string * Obs.Json.t) list;
}

(* Every run reports every end-to-end metric; a traced run reports
   every per-layer metric, with 0 for a layer its workload never
   exercises. The tail latency is a figure, not a gated metric: on a
   host whose speed drifts for minutes at a time it spread by more than
   a quarter across seeds. *)
let end_to_end_names = [ "setup_s"; "throughput_ops_s"; "latency_p50_ms"; "peak_rss_mb" ]

let per_layer_units =
  [
    ("wire.parse_us", "us");
    ("wire.encode_ok_us", "us");
    ("frame.encode_us", "us");
    ("frame.decode_us", "us");
    ("cache.key_us", "us");
    ("cache.find_us", "us");
    ("cache.hit_ratio", "ratio");
    ("cache.lookups", "count");
    ("cache.evictions", "count");
    ("server.loop_iterations_per_op", "ratio");
    ("server.write_stalls", "count");
    ("server.overloaded", "count");
    ("server.deadline_exceeded", "count");
    ("router.handle_ms.count_dp", "ms");
    ("router.handle_ms.enumeration", "ms");
    ("router.handle_ms.horizon", "ms");
    ("router.handle_ms.fleet", "ms");
    ("router.handle_ms.cheap", "ms");
    ("analysis.run_ms.count_dp", "ms");
    ("analysis.run_ms.enumeration", "ms");
    ("analysis.run_ms.horizon", "ms");
    ("registry.render_us", "us");
    ("fleet.controller_run_ms", "ms");
    ("prob.pmf_us", "us");
    ("prob.incremental_update_us", "us");
    ("parallel.enumeration_lane_ratio", "ratio");
    ("storage.save_ms", "ms");
    ("storage.load_ms", "ms");
    ("storage.snapshot_bytes", "bytes");
    ("storage.bytes_per_put", "bytes");
    ("command.encode_us", "us");
    ("state.apply_us", "us");
    ("transport.envelope_encode_us", "us");
    ("raft_codec.msg_encode_us", "us");
    ("replica.follower_lag_max", "entries");
    ("replica.dedup_skips", "count");
    ("raft.term_changes_per_kill", "ratio");
    ("client.endpoint_switches", "count");
    ("replica.restart_to_leader_ms", "ms");
    ("loadgen.max_lateness_ms", "ms");
    ("obs.observe_ns", "ns");
    ("trace.overhead_share", "ratio");
    ("cached_read.unaccounted_share", "ratio");
  ]

(* From raw latency samples in milliseconds: the median, the highest
   percentile the sample supports with its value, and the count. *)
let latency samples =
  let sorted = Sample.sorted_of_list samples in
  (Sample.median sorted, Sample.tail sorted, Array.length sorted)

let latency_figures ~samples ~pct =
  [ m "latency_samples" "count" samples; m "latency_tail_percentile" "pct" pct ]

(* Latency over the windows of a run, given each window's [latency]:
   the median across windows of each window's median and of its highest
   supported percentile, so a stall of the host that spans a window or
   two moves neither. Returns p50, tail and figures. *)
let windowed_latency stats =
  let median_of f =
    let a = Array.of_list (List.map f stats) in
    Array.sort Float.compare a;
    Sample.median a
  in
  ( median_of (fun (p50, _, _) -> p50),
    median_of (fun (_, (_, tail), _) -> tail),
    latency_figures
      ~samples:(float_of_int (List.fold_left (fun acc (_, _, n) -> acc + n) 0 stats))
      ~pct:(median_of (fun (_, (pct, _), _) -> pct)) )

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  scan ()

let host ~nproc ~source =
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Int nproc);
      ("recommended_domain_count", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("pool_default", Obs.Json.Int (Parallel.Pool.default ()));
      ("ocaml_version", Obs.Json.String Sys.ocaml_version);
      ("commit", Obs.Json.String source);
      ("metrics_enabled", Obs.Json.Bool (Obs.Metrics.enabled ()));
    ]

let metric_json x =
  Obs.Json.Obj [ ("value", Obs.Json.number x.value); ("unit", Obs.Json.String x.unit_) ]

let metrics_json xs = Obs.Json.Obj (List.map (fun x -> (x.name, metric_json x)) xs)

(* The metrics the result line carries: exactly the end-to-end set, or
   exactly the per-layer set of a traced run. *)
let gated ~traced o =
  if not traced then
    List.map
      (fun name ->
        match List.find_opt (fun x -> x.name = name) o.end_to_end with
        | Some x -> x
        | None -> failwith ("workload did not measure " ^ name))
      end_to_end_names
  else
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun x -> x.name = name) o.layers with
        | Some x -> x
        | None -> m name unit_ 0.)
      per_layer_units

let print ~workload ~seed ~seconds ~traced ~host o =
  let shown = gated ~traced o in
  let line x = Printf.printf "  %-34s %14.6g %s\n" x.name x.value x.unit_ in
  Printf.printf "probcons benchmark: workload %s, seed %d, %d s, trace %d\n"
    workload seed seconds
    (if traced then 1 else 0);
  Printf.printf "%s metrics:\n" (if traced then "per-layer" else "end-to-end");
  List.iter line shown;
  if o.figures <> [] then (
    print_endline "workload figures:";
    List.iter line o.figures);
  let error_rate =
    float_of_int o.failed /. float_of_int (max 1 o.attempted)
  in
  Printf.printf "  %-34s %14.6g ratio (%d of %d)\n" "error_rate" error_rate
    o.failed o.attempted;
  List.iter (fun p -> Printf.printf "correctness: %s\n" p) o.problems;
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          ([
             ("report", Obs.Json.String workload);
             ("host", host);
             ("error_rate", Obs.Json.number error_rate);
             ("figures", metrics_json o.figures);
             ("problems", Obs.Json.List (List.map (fun p -> Obs.Json.String p) o.problems));
           ]
          @ o.detail)));
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (o.problems = []));
            ("attempted", Obs.Json.Int (max 1 o.attempted));
            ("failed", Obs.Json.Int o.failed);
            ("metrics", metrics_json shown);
          ]))
