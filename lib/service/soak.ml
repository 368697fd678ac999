let allowed_codes =
  [ Wire.Timeout; Wire.Connection_lost; Wire.Overloaded; Wire.Deadline_exceeded ]

let temp_socket tag =
  let path = Filename.temp_file ("probcons-" ^ tag) ".sock" in
  Sys.remove path;
  path

let drain server =
  let rec go tries =
    let n = Server.connection_count server in
    if n = 0 || tries = 0 then n
    else begin
      Unix.sleepf 0.05;
      go (tries - 1)
    end
  in
  go 100

type report = {
  loadgen : Loadgen.result;
  proxy : Chaos.t;
  connections_after : int;
  failures : string list;
}

let failures (r : Loadgen.result) ~connections_after =
  let allowed code = List.exists (fun c -> Wire.code_string c = code) allowed_codes in
  (if r.Loadgen.mismatches > 0 then
     [ Printf.sprintf "%d byte-identity mismatches" r.Loadgen.mismatches ]
   else [])
  @ List.filter_map
      (fun (code, n) ->
        if allowed code then None
        else Some (Printf.sprintf "%d '%s' errors surfaced to the client" n code))
      r.Loadgen.errors_by_code
  @
  if connections_after = 0 then []
  else
    [ Printf.sprintf "server still holds %d connections after the soak"
        connections_after ]

let through_proxy ~config ~plan f =
  let server_sock = temp_socket "server" and proxy_sock = temp_socket "proxy" in
  let server = Server.start { config with Server.socket_path = Some server_sock } in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let proxy =
    Chaos.start ~plan ~listen:(Client.Unix_path proxy_sock)
      ~upstream:(Client.Unix_path server_sock)
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Chaos.stop proxy)
      (fun () ->
        f ~direct:(Client.Unix_path server_sock) ~proxied:(Client.Unix_path proxy_sock))
  in
  (result, proxy, drain server)

let run ~plan ~clients ~requests ~distinct ~deadline =
  let loadgen, proxy, connections_after =
    through_proxy ~plan
      ~config:{ Server.default_config with idle_timeout_seconds = 30. }
      (fun ~direct ~proxied ->
        Loadgen.run ~clients ~requests ~distinct ~timeout:deadline
          ~expected_from:direct ~target:proxied ())
  in
  { loadgen; proxy; connections_after; failures = failures loadgen ~connections_after }

let artifact r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "probcons-chaos/1");
      ("chaos", Chaos.report r.proxy);
      ("loadgen", Loadgen.to_json r.loadgen);
      ("drained", Obs.Json.Bool (r.connections_after = 0));
      ("connections_after", Obs.Json.Int r.connections_after);
    ]

let print_report r =
  Loadgen.print_report r.loadgen;
  Format.printf "chaos faults:";
  List.iter (fun (name, n) -> Format.printf " %s=%d" name n) (Chaos.counts r.proxy);
  Format.printf "@."
