(* CLI smoke tests: run the probcons binary end-to-end and check the
   shapes of its output. The binary is declared as a dune dependency,
   so these run against the freshly built executable. *)

let binary = "../bin/main.exe"

let run_capture args =
  let command = Printf.sprintf "%s %s > cli_output.txt 2>&1" binary args in
  let status = Sys.command command in
  let ic = open_in "cli_output.txt" in
  let size = in_channel_length ic in
  let contents = really_input_string ic size in
  close_in ic;
  (status, contents)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let check_contains args needles =
  let status, output = run_capture args in
  Alcotest.(check int) (args ^ " exits 0") 0 status;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%S in output of %s" needle args)
        true (contains output needle))
    needles

let test_tables () =
  check_contains "tables" [ "Table 1"; "Table 2"; "99.94%"; "99.97%"; "98.18%" ]

let test_analyze () =
  check_contains "analyze --protocol raft -n 3 -p 0.01" [ "safe"; "99.97%" ];
  check_contains "analyze --protocol pbft -n 7 -p 0.02" [ "pbft(n=7"; "count-dp" ];
  check_contains "analyze --protocol raft --mix 4x0.08,3x0.01" [ "raft(n=7" ];
  (* Registry dispatch: every model name is a valid --protocol. *)
  check_contains "analyze --protocol upright -n 7 -p 0.02" [ "upright" ];
  check_contains "analyze --protocol benor -n 5 -p 0.01" [ "ben-or(n=5" ];
  check_contains "analyze --protocol quorum-availability -n 5 -p 0.01"
    [ "threshold(n=5" ]

let test_analyze_rejects_bad_mix () =
  (* The CLI --mix goes through the same Scenario validator as the wire
     layer: out-of-range probabilities are an error, not a silent pass. *)
  let status, output = run_capture "analyze --protocol raft --mix 4x1.5" in
  Alcotest.(check bool) "nonzero exit" true (status <> 0);
  Alcotest.(check bool) "names the violation" true
    (contains output "probability");
  let status, _ = run_capture "analyze --protocol raft --mix 0x0.5" in
  Alcotest.(check bool) "zero count rejected" true (status <> 0);
  let status, output = run_capture "analyze --protocol paxos -n 3 -p 0.01" in
  Alcotest.(check bool) "unknown protocol rejected" true (status <> 0);
  Alcotest.(check bool) "lists known protocols" true (contains output "raft")

let test_protocols () =
  check_contains "protocols"
    [ "raft"; "pbft"; "pbft-forensics"; "upright"; "benor"; "stake";
      "quorum-availability"; "raft-weighted"; "committee-weighted" ];
  let status, output = run_capture "protocols --names" in
  Alcotest.(check int) "exits 0" 0 status;
  let lines = String.split_on_char '\n' (String.trim output) in
  Alcotest.(check int) "nine bare names" 9 (List.length lines)

let test_markov () =
  check_contains "markov -n 5 --afr 0.08" [ "MTTF"; "MTTDL"; "availability" ]

let test_simulate () =
  check_contains "simulate --protocol raft -n 5 --crash 0,1"
    [ "agreement=true"; "live=true" ]

let test_sweep_csv () =
  let status, output = run_capture "sweep --kind raft --csv" in
  Alcotest.(check int) "exits 0" 0 status;
  (* CSV shape: header + 5 rows, comma-separated. *)
  let lines = String.split_on_char '\n' (String.trim output) in
  Alcotest.(check int) "six lines" 6 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "has commas" true (String.contains line ','))
    lines

let test_plan () =
  check_contains "plan --target-nines 3 --mix 3x0.01,4x0.08"
    [ "committee"; "execution: safe=true" ]

let test_fleet () =
  check_contains "fleet --nodes 9 --ticks 8 --quorum 7 --target-nines 5"
    [ "fleet: 9 nodes"; "resize to"; "swap node"; "final:" ];
  check_contains "fleet --nodes 9 --ticks 8 --quorum 7 --target-nines 5 --json"
    [ {|"subsystem": "fleet"|}; {|"recommendations"|} ];
  let status, _ = run_capture "fleet --nodes 0" in
  Alcotest.(check bool) "rejects empty fleet" true (status <> 0);
  (* Dynamic mode flags its payload; the static payload keeps the
     legacy bytes, with no dynamic key at all. *)
  check_contains
    "fleet --nodes 9 --ticks 8 --quorum 7 --target-nines 5 --dynamic --json"
    [ {|"dynamic": true|} ];
  let status, static =
    run_capture "fleet --nodes 9 --ticks 8 --quorum 7 --target-nines 5 --json"
  in
  Alcotest.(check int) "static fleet exits 0" 0 status;
  Alcotest.(check bool) "static payload has no dynamic key" false
    (contains static "dynamic")

let test_analyze_horizon () =
  check_contains "analyze --protocol raft -n 5 -p 0.02 --horizon 8766"
    [ "min p_live"; "nines" ];
  check_contains
    "analyze --protocol raft -n 5 -p 0.02 --horizon 8766 --rounds 3 --json"
    [ {|"horizon": 8766|}; {|"rounds": 3|}; {|"trajectory"|}; {|"min_p_live"|} ];
  (* --rounds without --horizon is a contradiction, not a default. *)
  let status, _ = run_capture "analyze --protocol raft -n 5 -p 0.02 --rounds 3" in
  Alcotest.(check bool) "rounds without horizon rejected" true (status <> 0);
  (* A scenario file carrying its own horizon dispatches identically to
     the flag spelling through the --json renderer. *)
  let status, from_flags =
    run_capture
      "analyze --protocol raft -n 5 -p 0.02 --horizon 8766 --rounds 3 --json"
  in
  Alcotest.(check int) "flags exit 0" 0 status;
  write_file "cli_horizon.json"
    {|{"protocol": "raft", "mix": [[5, 0.02]], "horizon": 8766, "rounds": 3}|};
  let status, from_file =
    run_capture "analyze --scenario cli_horizon.json --json"
  in
  Alcotest.(check int) "file exit 0" 0 status;
  Alcotest.(check string) "identical horizon payloads" from_flags from_file

let test_bad_command_fails () =
  let status, _ = run_capture "no-such-command" in
  Alcotest.(check bool) "nonzero exit" true (status <> 0)

let test_version () =
  check_contains "version" [ "probcons 1.1.0"; "probcons-wire/3" ];
  (* Every subcommand answers --version with the package version. *)
  List.iter
    (fun sub -> check_contains (sub ^ " --version") [ "1.1.0" ])
    [ "analyze"; "protocols"; "markov"; "sweep"; "serve"; "loadgen"; "version" ]

let test_serve_requires_listener () =
  let status, output = run_capture "serve" in
  Alcotest.(check bool) "nonzero exit" true (status <> 0);
  Alcotest.(check bool) "usage hint" true (contains output "--socket")

(* --- Cross-layer byte identity -------------------------------------- *)

let test_scenario_file () =
  (* A --scenario file and the equivalent flags print the same bytes:
     both are the same Scenario value through the same renderer. *)
  let status, flags =
    run_capture "analyze --protocol pbft -n 7 -p 0.02 --json"
  in
  Alcotest.(check int) "flags exit 0" 0 status;
  write_file "cli_scenario.json" {|{"protocol": "pbft", "mix": [[7, 0.02]]}|};
  let status, from_file = run_capture "analyze --scenario cli_scenario.json --json" in
  Alcotest.(check int) "file exit 0" 0 status;
  Alcotest.(check string) "identical payloads" flags from_file;
  (* Malformed scenario files die with a diagnostic, not a traceback. *)
  write_file "cli_scenario.json" {|{"protocol": "pbft"}|};
  let status, output = run_capture "analyze --scenario cli_scenario.json" in
  Alcotest.(check bool) "bad file rejected" true (status <> 0);
  Alcotest.(check bool) "diagnostic names the file" true
    (contains output "cli_scenario.json")

(* An in-process server on a fresh Unix socket, for the tests that
   compare CLI output with what the service sends. *)
let with_server f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "probcons-cli-%d.sock" (Unix.getpid ()))
  in
  let server =
    Service.Server.start
      {
        Service.Server.default_config with
        Service.Server.socket_path = Some socket;
        workers = 1;
        queue_depth = 8;
        cache_capacity = 16;
      }
  in
  Fun.protect ~finally:(fun () -> Service.Server.stop server) (fun () -> f socket)

let analyze_body =
  {|{"v": 3, "id": 7, "kind": "analyze", "params": {"protocol": "raft", "mix": [[5, 0.01]]}}|}

let test_cross_layer_identity () =
  (* The cross-layer contract: `analyze --json` and the served reply
     carry byte-identical payloads, because both are
     Registry.analyze_json over the same scenario. *)
  let status, cli =
    run_capture "analyze --protocol raft -n 5 -p 0.01 --json"
  in
  Alcotest.(check int) "cli exits 0" 0 status;
  let cli_payload = String.trim cli in
  with_server (fun socket ->
      let c =
        Service.Client.connect ~retry_for:5. (Service.Client.Unix_path socket)
      in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let reply =
            match Service.Client.call_raw c analyze_body with
            | Some reply -> reply
            | None -> Alcotest.failf "no reply to %s" analyze_body
          in
          let prefix = {|{"v": 3, "id": 7, "ok": |} in
          let plen = String.length prefix in
          Alcotest.(check string) "ok envelope" prefix (String.sub reply 0 plen);
          let payload = String.sub reply plen (String.length reply - plen - 1) in
          Alcotest.(check string) "CLI --json = service payload" cli_payload
            payload))

let test_call () =
  (* `probcons call` sends one body — the argument, or stdin — and
     prints the reply body: the same bytes a library client receives. *)
  with_server (fun socket ->
      let call args = run_capture (Printf.sprintf "call --socket %s %s" socket args) in
      let status, ping = call {|'{"v": 3, "id": 1, "kind": "ping"}'|} in
      Alcotest.(check int) "ping exits 0" 0 status;
      Alcotest.(check bool) "ping answered" true
        (contains ping {|{"v": 3, "id": 1, "ok": |} && contains ping "uptime_seconds");
      write_file "cli_call.json" analyze_body;
      let status, from_stdin = call "< cli_call.json" in
      Alcotest.(check int) "analyze exits 0" 0 status;
      let c =
        Service.Client.connect ~retry_for:5. (Service.Client.Unix_path socket)
      in
      let direct =
        Fun.protect
          ~finally:(fun () -> Service.Client.close c)
          (fun () -> Service.Client.call_raw c analyze_body)
      in
      Alcotest.(check (option string)) "printed reply = served reply" direct
        (Some (String.trim from_stdin)));
  let status, _ =
    run_capture {|call --socket /nonexistent/probcons.sock '{"v": 3, "kind": "ping"}'|}
  in
  Alcotest.(check int) "no reply exits 1" 1 status

let test_replicate_rejects_bad_measure () =
  (* Rejected before any replica is spawned: no window, no probe, or a
     run shorter than one window would measure nothing. *)
  List.iter
    (fun flags ->
      let status, output = run_capture ("replicate --measure " ^ flags) in
      Alcotest.(check int) (flags ^ " exits 2") 2 status;
      Alcotest.(check bool) (flags ^ " says why") true (contains output "replicate:"))
    [ "--window 0"; "--window=-1"; "--probes 0"; "--duration 2 --window 5" ]

let suite =
  [
    Alcotest.test_case "tables" `Quick test_tables;
    Alcotest.test_case "analyze" `Quick test_analyze;
    Alcotest.test_case "analyze rejects bad mix" `Quick
      test_analyze_rejects_bad_mix;
    Alcotest.test_case "protocols" `Quick test_protocols;
    Alcotest.test_case "scenario file" `Quick test_scenario_file;
    Alcotest.test_case "cross-layer identity" `Quick test_cross_layer_identity;
    Alcotest.test_case "call" `Quick test_call;
    Alcotest.test_case "markov" `Quick test_markov;
    Alcotest.test_case "simulate" `Quick test_simulate;
    Alcotest.test_case "sweep csv" `Quick test_sweep_csv;
    Alcotest.test_case "plan" `Quick test_plan;
    Alcotest.test_case "fleet" `Quick test_fleet;
    Alcotest.test_case "analyze horizon" `Quick test_analyze_horizon;
    Alcotest.test_case "bad command fails" `Quick test_bad_command_fails;
    Alcotest.test_case "version" `Quick test_version;
    Alcotest.test_case "serve requires listener" `Quick test_serve_requires_listener;
    Alcotest.test_case "replicate rejects bad measure flags" `Quick
      test_replicate_rejects_bad_measure;
  ]
