(* The probcons benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --tmp DIR
               [--nproc N] [--source ID]

   Runs one workload for about S measured seconds and prints, as its
   last line, one JSON object with [correct], [attempted], [failed] and
   [metrics]: the end-to-end metrics (trace 0), or the per-layer
   metrics of a traced run (trace 1). The line before it is a report
   with the host record and the workload-specific figures. Scratch
   files (sockets, replica state) go under DIR.

   BENCHMARK.json gates cached-read and replicated-write. analysis-mix
   and leader-failover run the same way but are not gated: on a host
   whose CPU speed drifts by a quarter from minute to minute, their
   throughput and tail latency spread more across seeds than the
   largest bound allows. Their layers are measured in the traced runs
   of the gated workloads. *)

let workloads =
  [
    ("cached-read", Serve_load.run ~workload:Serve_load.Cached_read);
    ("analysis-mix", Serve_load.run ~workload:Serve_load.Analysis_mix);
    ("replicated-write", Replica_load.replicated_write);
    ("leader-failover", Replica_load.leader_failover);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let tmp = ref "" and nproc = ref 0 and source = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory (must exist)");
      ("--nproc", Arg.Set_int nproc, "N processors available, for the host record");
      ("--source", Arg.Set_string source, "ID commit or source digest, for the host record");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --tmp DIR";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !tmp = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then (
    prerr_endline "need --tmp DIR, --seconds >= 1 and --trace 0 or 1";
    exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = !trace = 1 in
  let outcome = run ~seed:!seed ~seconds:!seconds ~traced ~tmp:!tmp in
  Report.print ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced
    ~host:(Report.host ~nproc:!nproc ~source:!source)
    outcome
