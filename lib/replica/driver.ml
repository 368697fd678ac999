module FP = Faultmodel.Failure_process

let schema = "probcons-repl-avail/1"

let service_port ~base_port ~replicas i = base_port + replicas + i

type config = {
  replicas : int;
  base_port : int;
  seed : int;
  process : FP.t;
  hours_per_second : float;
  duration_seconds : float;
  window_seconds : float;
  probes_per_window : int;
  tolerance : float;
  state_root : string;
  child_argv : id:int -> string array;
  log : string -> unit;
}

type event = { at_seconds : float; kind : [ `Kill of int | `Restart of int ] }

let kill_schedule ~seed ~replicas ~process ~hours_per_second ~duration_seconds =
  let horizon = duration_seconds *. hours_per_second in
  let events = ref [] in
  for i = 0 to replicas - 1 do
    let rng = Prob.Rng.of_pair seed (0x4b49 + i) in
    List.iter
      (fun (fail, back) ->
        events :=
          { at_seconds = fail /. hours_per_second; kind = `Kill i } :: !events;
        match back with
        | None -> ()
        | Some back ->
            events :=
              { at_seconds = back /. hours_per_second; kind = `Restart i }
              :: !events)
      (FP.sample_downtime rng process ~horizon)
  done;
  List.sort (fun a b -> compare a.at_seconds b.at_seconds) !events

let predicted_windows ~replicas ~process ~hours_per_second ~midpoints_seconds =
  let ( let* ) = Result.bind in
  let* first, times =
    match List.map (fun s -> Float.max 1e-9 (s *. hours_per_second)) midpoints_seconds with
    | [] -> Error "no measurement window to predict"
    | first :: _ as times -> Ok (first, times)
  in
  let* scenario =
    Probcons.Scenario.make ~protocol:"raft"
      ~mix:[ (replicas, FP.marginal process first) ]
      ~processes:(List.init replicas (fun _ -> process))
      ()
  in
  let* proto = Probcons.Registry.protocol_of scenario in
  let* fleet = Probcons.Registry.fleet_of scenario in
  let points = Probcons.Analysis.run_horizon ~times proto fleet in
  Ok
    (List.map
       (fun (hp : Probcons.Analysis.horizon_point) ->
         hp.Probcons.Analysis.result.Probcons.Analysis.p_live)
       points)

type window = {
  index : int;
  t_mid_seconds : float;
  ok : int;
  total : int;
  predicted : float;
}

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let artifact cfg ~windows ~writes_acked ~writes_lost ~kills ~restarts =
  let measured_mean =
    mean
      (List.map
         (fun w ->
           if w.total = 0 then 1. else float_of_int w.ok /. float_of_int w.total)
         windows)
  in
  let predicted_mean = mean (List.map (fun w -> w.predicted) windows) in
  Obs.Json.Obj
    (("schema", Obs.Json.String schema)
    :: ("replicas", Obs.Json.Int cfg.replicas)
    :: ("seed", Obs.Json.Int cfg.seed)
    :: ("process", FP.to_json cfg.process)
    :: ("hours_per_second", Obs.Json.number cfg.hours_per_second)
    :: ("duration_seconds", Obs.Json.number cfg.duration_seconds)
    :: ("window_seconds", Obs.Json.number cfg.window_seconds)
    :: ("probes_per_window", Obs.Json.Int cfg.probes_per_window)
    :: ( "windows",
         Obs.Json.List
           (List.map
              (fun w ->
                Obs.Json.Obj
                  [
                    ("index", Obs.Json.Int w.index);
                    ("t_mid_seconds", Obs.Json.number w.t_mid_seconds);
                    ( "t_mid_hours",
                      Obs.Json.number (w.t_mid_seconds *. cfg.hours_per_second)
                    );
                    ("ok", Obs.Json.Int w.ok);
                    ("total", Obs.Json.Int w.total);
                    ( "measured",
                      Obs.Json.number
                        (if w.total = 0 then 1.
                         else float_of_int w.ok /. float_of_int w.total) );
                    ("predicted", Obs.Json.number w.predicted);
                  ])
              windows) )
    :: ("measured_mean", Obs.Json.number measured_mean)
    :: ("predicted_mean", Obs.Json.number predicted_mean)
    :: ("abs_error", Obs.Json.number (Float.abs (measured_mean -. predicted_mean)))
    :: ("tolerance", Obs.Json.number cfg.tolerance)
    :: ("writes_acked", Obs.Json.Int writes_acked)
    :: ("writes_lost", Obs.Json.Int writes_lost)
    :: ("kills", Obs.Json.Int kills)
    :: [ ("restarts", Obs.Json.Int restarts) ])

(* ---- process management ------------------------------------------- *)

(* Raised by [spawn] and turned into [run]'s error. *)
exception Cannot_start of string

let spawn cfg i =
  let argv = cfg.child_argv ~id:i in
  let log_path =
    Filename.concat cfg.state_root (Printf.sprintf "replica-%d.log" i)
  in
  try
    let logfd =
      Unix.openfile log_path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close logfd with Unix.Unix_error _ -> ())
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin logfd logfd)
  with Unix.Unix_error (err, fn, arg) ->
    raise
      (Cannot_start
         (Printf.sprintf "driver: cannot start replica %d: %s %s: %s" i fn arg
            (Unix.error_message err)))

let kill_child cfg pids i ~signal =
  match pids.(i) with
  | None -> false
  | Some pid ->
      pids.(i) <- None;
      (try Unix.kill pid signal with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      cfg.log (Printf.sprintf "killed replica %d (pid %d)" i pid);
      true

let sleep_until t =
  let d = t -. Unix.gettimeofday () in
  if d > 0. then Thread.delay d

let probe_scenario =
  lazy (Probcons.Scenario.uniform ~protocol:"raft" ~n:3 ~p:0.01 ())

let wait_for_leader multi ~deadline =
  let rec go attempt =
    if Unix.gettimeofday () > deadline then false
    else
      match
        Service.Client.Multi.call ~timeout:0.5 multi ~id:attempt
          Service.Wire.Replica_status
      with
      | Ok j
        when (match Obs.Json.member "role" j with
             | Some (Obs.Json.String "leader") -> true
             | _ -> false)
             ||
             match Obs.Json.member "leader_hint" j with
             | Some (Obs.Json.Int _) -> true
             | _ -> false ->
          true
      | _ ->
          Thread.delay 0.2;
          go (attempt + 1)
  in
  go 1_000_000

let make_state_root cfg =
  if not (Sys.file_exists cfg.state_root) then Unix.mkdir cfg.state_root 0o755

let supervise cfg ~ready =
  make_state_root cfg;
  let pids =
    Array.init cfg.replicas (fun i ->
        let argv = cfg.child_argv ~id:i in
        Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr)
  in
  ready ();
  Service.Server.wait_for_signal ();
  Array.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  Array.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) pids

let validate cfg =
  if cfg.replicas < 1 then Error "driver: need at least one replica"
  else if not (cfg.window_seconds > 0.) then Error "driver: the window must be positive"
  else if cfg.probes_per_window < 1 then
    Error "driver: a window needs at least one probe"
  else if not (cfg.duration_seconds >= cfg.window_seconds) then
    Error "driver: the duration must cover at least one window"
  else Ok ()

let run cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () -> begin
    make_state_root cfg;
    let n = cfg.replicas in
    let pids = Array.make n None in
    let kills = ref 0 and restarts = ref 0 in
    let cleanup () =
      for i = 0 to n - 1 do
        ignore (kill_child cfg pids i ~signal:Sys.sigterm)
      done
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    try
    for i = 0 to n - 1 do
      pids.(i) <- Some (spawn cfg i)
    done;
    let targets =
      List.init n (fun i ->
          Service.Client.Tcp (service_port ~base_port:cfg.base_port ~replicas:n i))
    in
    let multi = Service.Client.Multi.create targets in
    Fun.protect ~finally:(fun () -> Service.Client.Multi.close multi)
    @@ fun () ->
    if not (wait_for_leader multi ~deadline:(Unix.gettimeofday () +. 20.)) then
      Error "driver: no leader emerged within 20s of startup"
    else begin
      cfg.log "leader elected; measurement starting";
      let t0 = Unix.gettimeofday () in
      let schedule =
        ref
          (kill_schedule ~seed:cfg.seed ~replicas:n ~process:cfg.process
             ~hours_per_second:cfg.hours_per_second
             ~duration_seconds:cfg.duration_seconds)
      in
      let run_due_events () =
        let now = Unix.gettimeofday () -. t0 in
        let rec go () =
          match !schedule with
          | { at_seconds; kind } :: rest when at_seconds <= now ->
              schedule := rest;
              (match kind with
              | `Kill i -> if kill_child cfg pids i ~signal:Sys.sigkill then incr kills
              | `Restart i ->
                  if pids.(i) = None then (
                    pids.(i) <- Some (spawn cfg i);
                    incr restarts;
                    cfg.log (Printf.sprintf "restarted replica %d" i)));
              go ()
          | _ -> ()
        in
        go ()
      in
      let window_count =
        int_of_float (cfg.duration_seconds /. cfg.window_seconds)
      in
      let midpoints =
        List.init window_count (fun w ->
            (float_of_int w +. 0.5) *. cfg.window_seconds)
      in
      match
        predicted_windows ~replicas:n ~process:cfg.process
          ~hours_per_second:cfg.hours_per_second ~midpoints_seconds:midpoints
      with
      | Error msg -> Error ("driver: prediction failed: " ^ msg)
      | Ok predictions ->
          let acked = ref [] in
          let req_id = ref 0 in
          let probe_timeout =
            Float.min 1.0
              (0.8 *. cfg.window_seconds /. float_of_int cfg.probes_per_window)
          in
          let windows =
            List.mapi
              (fun w predicted ->
                let ok = ref 0 in
                for k = 0 to cfg.probes_per_window - 1 do
                  let at =
                    t0
                    +. (float_of_int w *. cfg.window_seconds)
                    +. (float_of_int k +. 0.5)
                       *. cfg.window_seconds
                       /. float_of_int cfg.probes_per_window
                  in
                  sleep_until at;
                  run_due_events ();
                  incr req_id;
                  let name = Printf.sprintf "probe-w%d-k%d" w k in
                  let result =
                    if k mod 2 = 0 then
                      Service.Client.Multi.call ~timeout:probe_timeout multi
                        ~id:!req_id
                        (Service.Wire.Scenario_put
                           {
                             name;
                             scenario = Lazy.force probe_scenario;
                             nonce = (w * 1000) + k;
                           })
                    else
                      Service.Client.Multi.call ~timeout:probe_timeout multi
                        ~id:!req_id
                        (Service.Wire.Scenario_get
                           {
                             name =
                               (match !acked with
                               | last :: _ -> last
                               | [] -> name);
                             linearizable = false;
                           })
                  in
                  match result with
                  | Ok _ ->
                      incr ok;
                      if k mod 2 = 0 then acked := name :: !acked
                  | Error _ -> ()
                done;
                cfg.log
                  (Printf.sprintf "window %d: %d/%d probes ok (predicted %.3f)"
                     w !ok cfg.probes_per_window predicted);
                {
                  index = w;
                  t_mid_seconds = (float_of_int w +. 0.5) *. cfg.window_seconds;
                  ok = !ok;
                  total = cfg.probes_per_window;
                  predicted;
                })
              predictions
          in
          (* End of schedule: bring every replica back and verify no
             acknowledged write was lost. *)
          for i = 0 to n - 1 do
            if pids.(i) = None then (
              pids.(i) <- Some (spawn cfg i);
              incr restarts)
          done;
          if
            not (wait_for_leader multi ~deadline:(Unix.gettimeofday () +. 20.))
          then Error "driver: no leader emerged for the read-back phase"
          else begin
            let lost = ref 0 in
            List.iter
              (fun name ->
                let rec attempt k =
                  incr req_id;
                  match
                    Service.Client.Multi.call ~timeout:2.0 multi ~id:!req_id
                      (Service.Wire.Scenario_get { name; linearizable = true })
                  with
                  | Ok j
                    when Obs.Json.member "found" j = Some (Obs.Json.Bool true)
                    ->
                      ()
                  | _ when k < 3 ->
                      Thread.delay 0.5;
                      attempt (k + 1)
                  | _ ->
                      incr lost;
                      cfg.log (Printf.sprintf "acked write %S lost!" name)
                in
                attempt 0)
              !acked;
            Ok
              (artifact cfg ~windows
                 ~writes_acked:(List.length !acked)
                 ~writes_lost:!lost ~kills:!kills ~restarts:!restarts)
          end
    end
    with Cannot_start msg -> Error msg
  end
