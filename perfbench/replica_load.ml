(* The two replica workloads: [replicated-write] and [leader-failover].

   Both run three in-process [Replica.Node]s with persistence on, over
   loopback TCP with no injected message delay, and reach them through
   [Service.Client.Multi]. [replicated-write] is one closed-loop client
   running a fixed number of operations, four puts to each
   linearizable and plain get; the count is fixed because log length
   sets the persist cost. [leader-failover] sends puts on a schedule
   from two client threads while the benchmark stops the leader at
   fixed offsets and restarts it from its state directory; a traced
   [replicated-write] run ends with such a phase, so the failover
   layers are measured on the replicated-write workload as well.

   Every acknowledged put is read back at the end: one linearizable
   get orders the leader behind every acknowledged write, then plain
   gets on that leader read each name. All replicas' applied-state
   digests must converge. *)

module Wire = Service.Wire
module Multi = Service.Client.Multi
module Node = Replica.Node

let m = Report.m
let replicas = 3
let setups = 5

(* Replica seeds are fixed, not drawn from the workload seed: election
   timing is configuration, the requests are the input. With this seed
   the first election is won in one round on every start; with others
   (42 among them) it sometimes takes two, which makes set-up time
   bimodal. *)
let node_seed = 5

(* replicated-write: operations per measured second, and the blocks of
   consecutive units latency percentiles are taken over. *)
let units_per_second = 15
let latency_blocks = 4
let unit_pattern = [| `Put; `Put; `Put; `Put; `Lin_get; `Plain_get |]

(* leader-failover: the put schedule and the kills. *)
let put_rate = 20.
let kill_interval_seconds = 1.5
let downtime_seconds = 0.6

(* replicated-write: the failover phase closing a traced run. *)
let failover_seconds = 6

type cluster = {
  base : int;
  dir : string;
  nodes : Node.t option array;
}

let port_free port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* A base port whose whole block (raft, link-proxy and service ports)
   is free, below the kernel's ephemeral range. *)
let free_base ~salt =
  let span = replicas + (replicas * replicas) + replicas in
  let rec pick attempt =
    if attempt > 200 then failwith "no free port block"
    else
      let base = 20000 + ((Unix.getpid () * 7 + salt * 31 + attempt * 97) mod 600 * 20) in
      if List.for_all port_free (List.init span (fun i -> base + i)) then base
      else pick (attempt + 1)
  in
  pick 0

let node_config cl i =
  {
    (Node.default_config ~id:i ~n:replicas ~base_port:cl.base
       ~service_port:
         (Replica.Driver.service_port ~base_port:cl.base ~replicas i))
    with
    Node.seed = node_seed;
    state_dir = Some (Filename.concat cl.dir (string_of_int i));
  }

let start_node cl i = cl.nodes.(i) <- Some (Node.start (node_config cl i))

let stop_node cl i =
  match cl.nodes.(i) with
  | Some node ->
      cl.nodes.(i) <- None;
      Node.stop node
  | None -> ()

let stop_cluster cl = Array.iteri (fun i _ -> stop_node cl i) cl.nodes

let live cl = Array.to_list cl.nodes |> List.filter_map Fun.id

let multi cl =
  Multi.create ~timeout:10.
    (List.init replicas (fun i ->
         Service.Client.Tcp (Replica.Driver.service_port ~base_port:cl.base ~replicas i)))

let scenario rng =
  Probcons.Scenario.uniform
    ~protocol:(if Prob.Rng.bool rng 0.5 then "raft" else "pbft")
    ~n:(4 + Prob.Rng.int rng 6)
    ~p:(0.001 +. (0.05 *. Prob.Rng.float rng))
    ()

let put name scenario = Wire.Scenario_put { name; scenario; nonce = 0 }

(* Start a fresh cluster and get its first put acknowledged (leader
   election included); returns the cluster, its client and the seconds
   this took. *)
let setup ~tmp ~seed i =
  let dir = Filename.concat tmp (Printf.sprintf "cluster%d" i) in
  Unix.mkdir dir 0o755;
  let cl = { base = free_base ~salt:i; dir; nodes = Array.make replicas None } in
  let t0 = Unix.gettimeofday () in
  for r = 0 to replicas - 1 do
    start_node cl r
  done;
  let client = multi cl in
  let first = put "first" (scenario (Prob.Rng.of_pair seed 7)) in
  let rec first_put attempts =
    match Multi.call client ~id:1 first with
    | Ok _ -> ()
    | Error (_, msg) ->
        if attempts = 0 then failwith ("first put failed: " ^ msg)
        else first_put (attempts - 1)
  in
  first_put 3;
  (cl, client, Unix.gettimeofday () -. t0)

(* Set up several times, keeping only the last cluster running. *)
let boot ~tmp ~seed =
  let rec go i times =
    let cl, client, s = setup ~tmp ~seed i in
    if i + 1 < setups then (
      Multi.close client;
      stop_cluster cl;
      go (i + 1) (s :: times))
    else
      let times = Array.of_list (s :: times) in
      Array.sort Float.compare times;
      (cl, client, Sample.median times)
  in
  go 0 []

let leader cl = List.find_opt Node.is_leader (live cl)

let rec await_leader ?(deadline = Unix.gettimeofday () +. 10.) cl =
  match leader cl with
  | Some node -> node
  | None ->
      if Unix.gettimeofday () > deadline then failwith "no leader elected";
      Thread.delay 0.002;
      await_leader ~deadline cl

let applied node = (Node.state_counts node).Replica.State.applied

(* Leader applied count minus the furthest-behind replica's. *)
let follower_lag cl =
  match leader cl with
  | None -> 0
  | Some l ->
      let top = applied l in
      List.fold_left (fun acc n -> max acc (top - applied n)) 0 (live cl)

let found_as reply (name, scenario) =
  match reply with
  | Ok json -> (
      Obs.Json.member "found" json = Some (Obs.Json.Bool true)
      && Obs.Json.member "name" json = Some (Obs.Json.String name)
      &&
      match Obs.Json.member "scenario" json with
      | Some sj -> (
          match Probcons.Scenario.of_json sj with
          | Ok s -> Probcons.Scenario.equal s scenario
          | Error _ -> false)
      | None -> false)
  | Error _ -> false

(* The end-of-run checks: every acknowledged put (name, scenario, reply
   payload) is readable, and all replicas converge to the same applied
   state. *)
let verify cl client acked =
  let problems = ref [] in
  let note p = problems := p :: !problems in
  (match
     Multi.call client ~id:900_000_000
       (Wire.Scenario_get { name = "first"; linearizable = true })
   with
  | Ok _ -> ()
  | Error (_, msg) -> note ("final linearizable get failed: " ^ msg));
  let lost =
    List.filteri
      (fun i (name, scenario, _) ->
        let reply =
          Multi.call client ~id:(900_000_001 + i)
            (Wire.Scenario_get { name; linearizable = false })
        in
        not (found_as reply (name, scenario)))
      acked
  in
  if lost <> [] then
    note (Printf.sprintf "%d acknowledged puts were not read back" (List.length lost));
  let deadline = Unix.gettimeofday () +. 15. in
  let rec converge () =
    let counts = List.map Node.state_counts (live cl) in
    match counts with
    | first :: rest
      when List.for_all
             (fun c ->
               c.Replica.State.digest = first.Replica.State.digest
               && c.Replica.State.applied = first.Replica.State.applied)
             rest
           && List.length counts = replicas ->
        ()
    | _ ->
        if Unix.gettimeofday () > deadline then note "replica digests did not converge"
        else (
          Thread.delay 0.01;
          converge ())
  in
  converge ();
  if List.exists (fun n -> (Node.state_counts n).Replica.State.missing_payloads > 0) (live cl)
  then note "a replica applied a sequence number with no payload";
  List.rev !problems

let stats client =
  match Multi.call client ~id:0 Wire.Stats with
  | Ok json -> json
  | Error (_, msg) -> failwith ("stats failed: " ^ msg)

let snapshot_bytes cl =
  Array.to_list cl.nodes
  |> List.mapi (fun i _ ->
         let path = Replica.Storage.path ~dir:(Filename.concat cl.dir (string_of_int i)) in
         try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
  |> List.fold_left ( + ) 0

(* The storage layer on the leader's own final snapshot: load it, then
   save it into a scratch directory. *)
let storage_layers ~tmp cl leader_id =
  let dir = Filename.concat cl.dir (string_of_int leader_id) in
  let t0 = Unix.gettimeofday () in
  let snap =
    match Replica.Storage.load ~dir with
    | Ok (Some s) -> s
    | Ok None -> failwith "leader has no snapshot"
    | Error msg -> failwith msg
  in
  let load_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let scratch = Filename.concat tmp "storage-copy" in
  Unix.mkdir scratch 0o755;
  let t1 = Unix.gettimeofday () in
  Replica.Storage.save ~dir:scratch snap;
  let save_ms = (Unix.gettimeofday () -. t1) *. 1000. in
  [
    m "storage.load_ms" "ms" load_ms;
    m "storage.save_ms" "ms" save_ms;
    m "storage.snapshot_bytes" "bytes"
      (float_of_int (Unix.stat (Replica.Storage.path ~dir)).Unix.st_size);
  ]

let dedup_skips cl =
  List.fold_left
    (fun acc n -> acc + (Node.state_counts n).Replica.State.dedup_skips)
    0 (live cl)

(* The wire, frame, command, state, transport, Raft codec and storage
   layers on the workload's own acknowledged puts. *)
let put_layers ~tmp cl acked ~leader_id =
  let acked = Array.of_list acked in
  let queries = Array.map (fun (name, s, _) -> put name s) acked in
  let requests = Array.mapi (fun id query -> Wire.encode_request { Wire.id; query }) queries in
  let payloads = Array.map (fun (_, _, payload) -> payload) acked in
  let replies = Array.mapi (fun id payload -> Wire.encode_ok ~id ~payload) payloads in
  let ops =
    Array.map
      (fun (name, scenario, _) -> Replica.Command.Put_scenario { name; scenario; nonce = 0 })
      acked
  in
  Layers.codecs ~queries ~requests ~replies ~payloads
  @ Layers.replica ops
  @ storage_layers ~tmp cl leader_id

let server_layers before after =
  List.filter
    (fun x -> not (String.starts_with ~prefix:"cache." x.Report.name))
    (Serve_load.server_layers before after)

(* ---- leader-failover ------------------------------------------------ *)

(* One scheduled put: when it was due, sent and acknowledged. *)
type slot = {
  due : float;
  sent : float;
  acked : (float * string) option;  (** Ack time and reply payload. *)
  traced : bool;
}

(* The longest stretch, ending inside each kill's window, during which
   some put was due and none was acknowledged. Acks are walked in time
   order; a stretch starts at the later of the previous ack and the
   earliest due time still unacknowledged. *)
let failover_gaps slots kills =
  let acked =
    Array.to_list slots
    |> List.filter_map (fun s -> Option.map (fun (a, _) -> (a, s.due)) s.acked)
    |> List.sort compare |> Array.of_list
  in
  let n = Array.length acked in
  let earliest_due = Array.make (n + 1) Float.infinity in
  for i = n - 1 downto 0 do
    earliest_due.(i) <- Float.min (snd acked.(i)) earliest_due.(i + 1)
  done;
  let windows =
    List.mapi
      (fun k t -> (t, match List.nth_opt kills (k + 1) with Some t' -> t' | None -> Float.infinity))
      kills
  in
  List.map
    (fun (from, until) ->
      let gap = ref 0. in
      for i = 0 to n - 2 do
        let ends = fst acked.(i + 1) in
        if ends > from && ends <= until then
          gap := Float.max !gap (ends -. Float.max (fst acked.(i)) earliest_due.(i + 1))
      done;
      !gap *. 1000.)
    windows

type kill = {
  at : float;
  catchup_ms : float;
  restart_to_leader_ms : float;
}

(* Stop the current leader, restart it from its state directory after
   the downtime, and time how long it takes to follow a leader and to
   catch up with the leader's applied count. *)
let kill_leader cl ~lag =
  let victim = await_leader cl in
  let id = Node.id victim in
  let at = Unix.gettimeofday () in
  stop_node cl id;
  Thread.delay (Float.max 0. (at +. downtime_seconds -. Unix.gettimeofday ()));
  let restarted_at = Unix.gettimeofday () in
  start_node cl id;
  let node = Option.get cl.nodes.(id) in
  let deadline = restarted_at +. 10. in
  let rec poll ~follows =
    let now = Unix.gettimeofday () in
    lag := max !lag (follower_lag cl);
    let follows =
      match follows with
      | None when Node.leader_hint node <> None -> Some ((now -. restarted_at) *. 1000.)
      | f -> f
    in
    let caught_up =
      match leader cl with
      | Some l -> applied node >= applied l
      | None -> false
    in
    if (caught_up && follows <> None) || now > deadline then
      {
        at;
        catchup_ms = (if caught_up then (now -. restarted_at) *. 1000. else Float.infinity);
        restart_to_leader_ms = Option.value follows ~default:Float.infinity;
      }
    else (
      Thread.delay 0.002;
      poll ~follows)
  in
  poll ~follows:None

(* Sum the counters of every live replica's server (each counts since
   its own start). *)
let summed_stats cl =
  let per_node =
    List.map
      (fun node ->
        let c = Service.Client.connect ~timeout:5. (Service.Client.Tcp (Node.service_port node)) in
        Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
        match Service.Client.call c ~id:0 Wire.Stats with
        | Ok json -> json
        | Error (_, msg) -> failwith ("stats failed: " ^ msg))
      (live cl)
  in
  let sum path = List.fold_left (fun acc j -> acc +. Serve_load.stat j path) 0. per_node in
  let group name keys =
    (name, Obs.Json.Obj (List.map (fun k -> (k, Obs.Json.number (sum [ name; k ]))) keys))
  in
  Obs.Json.Obj
    [
      group "requests" [ "total"; "overloaded"; "deadline_exceeded" ];
      group "reactor" [ "loop_iterations"; "write_backpressure_stalls" ];
    ]

(* What a failover phase saw: every scheduled put, the kills, and the
   client and Raft counters around them. *)
type phase = {
  slots : slot array;
  kills : kill list;
  start : float;
  acked : (string * Probcons.Scenario.t * string) list;
  switches : int;
  term_changes : int;
  lag : int;
}

(* Puts on a fixed schedule from two client threads for [seconds],
   while the leader is stopped every kill interval and restarted from
   its state directory after the downtime. Traced runs trace every
   other put. *)
let failover_phase cl ~seed ~seconds ~traced =
  let total = int_of_float (put_rate *. float_of_int seconds) in
  let slots = Array.make total { due = 0.; sent = 0.; acked = None; traced = false } in
  let names = Array.init total (fun k -> Printf.sprintf "f%d" k) in
  let scenarios = Array.init total (fun k -> scenario (Prob.Rng.of_pair seed (1000 + k))) in
  let senders = 2 in
  let switches = Array.make senders 0 in
  let term () = List.fold_left (fun acc n -> max acc (Node.term n)) 0 (live cl) in
  let first_term = term () in
  let start = Unix.gettimeofday () +. 0.05 in
  let send lane =
    let client = multi cl in
    Fun.protect ~finally:(fun () -> Multi.close client) @@ fun () ->
    let trace = Trace.create () in
    let k = ref lane in
    while !k < total do
      let due = start +. (float_of_int !k /. put_rate) in
      let wait = due -. Unix.gettimeofday () in
      if wait > 0. then Thread.delay wait;
      trace.Trace.enabled <- traced && !k mod 2 = 1;
      let pinned = Multi.current client in
      let sent = Unix.gettimeofday () in
      let reply =
        Trace.span trace ~request:!k "multi.call" (fun () ->
            Multi.call client ~id:(!k + 2) (put names.(!k) scenarios.(!k)))
      in
      let now = Unix.gettimeofday () in
      if Multi.current client <> pinned then switches.(lane) <- switches.(lane) + 1;
      let acked =
        match reply with
        | Ok json when Obs.Json.member "stored" json = Some (Obs.Json.Bool true) ->
            Some (now, Obs.Json.to_string json)
        | _ -> None
      in
      slots.(!k) <- { due; sent; acked; traced = trace.Trace.enabled };
      k := !k + senders
    done
  in
  let threads = Array.init senders (fun lane -> Thread.create send lane) in
  let lag = ref 0 in
  (* Kills are evenly spaced over the phase, half an interval from its
     ends. *)
  let count = max 1 (int_of_float (float_of_int seconds /. kill_interval_seconds)) in
  let kills =
    List.init count (fun k ->
        let offset = (float_of_int k +. 0.5) /. float_of_int count in
        let at = start +. (offset *. float_of_int seconds) in
        Thread.delay (Float.max 0. (at -. Unix.gettimeofday ()));
        kill_leader cl ~lag)
  in
  Array.iter Thread.join threads;
  let acked =
    List.concat
      (List.init total (fun k ->
           match slots.(k).acked with
           | Some (_, payload) -> [ (names.(k), scenarios.(k), payload) ]
           | None -> []))
  in
  {
    slots;
    kills;
    start;
    acked;
    switches = Array.fold_left ( + ) 0 switches;
    term_changes = term () - first_term;
    lag = !lag;
  }

(* Latency in ms from each put's due time, over the traced or the
   untraced puts; a failed put counts as missing every limit. *)
let phase_latency p ~traced =
  let s = Sample.create () in
  Array.iter
    (fun (slot : slot) ->
      if slot.traced = traced then
        Sample.add s
          (match slot.acked with
          | Some (a, _) -> (a -. slot.due) *. 1000.
          | None -> Float.infinity))
    p.slots;
  s

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  Sample.median a

let max_lateness_ms p =
  Array.fold_left (fun acc (s : slot) -> Float.max acc (s.sent -. s.due)) 0. p.slots *. 1000.

(* Median over kills of the failover gap and of the restarted
   replica's catch-up time. *)
let failover_figures p =
  let gaps = failover_gaps p.slots (List.map (fun k -> k.at) p.kills) in
  [
    m "failover_gap_ms" "ms" (median_of gaps);
    m "catchup_ms" "ms" (median_of (List.map (fun k -> k.catchup_ms) p.kills));
    m "kills" "count" (float_of_int (List.length p.kills));
  ]

let failover_layers p =
  [
    m "raft.term_changes_per_kill" "ratio"
      (float_of_int p.term_changes /. float_of_int (List.length p.kills));
    m "replica.restart_to_leader_ms" "ms"
      (median_of (List.map (fun k -> k.restart_to_leader_ms) p.kills));
    m "loadgen.max_lateness_ms" "ms" (max_lateness_ms p);
  ]

let leader_failover ~seed ~seconds ~traced ~tmp =
  let cl, control, setup_s = boot ~tmp ~seed in
  Fun.protect ~finally:(fun () -> Multi.close control; stop_cluster cl) @@ fun () ->
  let p = failover_phase cl ~seed ~seconds ~traced in
  let peak_rss = Report.peak_rss_mb () in
  let total = Array.length p.slots in
  let last_ack =
    Array.fold_left
      (fun acc (s : slot) -> match s.acked with Some (a, _) -> Float.max acc a | None -> acc)
      p.start p.slots
  in
  let problems = verify cl control p.acked in
  let leader_id = Node.id (await_leader cl) in
  let untraced = phase_latency p ~traced:false in
  let p50, (pct, tail), n = Report.latency [ untraced ] in
  let counts = Report.latency_figures ~samples:(float_of_int n) ~pct in
  let layers =
    if not traced then []
    else
      let mean s = Sample.mean (Sample.to_array s) in
      put_layers ~tmp cl p.acked ~leader_id
      @ server_layers (Obs.Json.Obj []) (summed_stats cl)
      @ failover_layers p
      @ [
          m "replica.follower_lag_max" "entries" (float_of_int p.lag);
          m "replica.dedup_skips" "count" (float_of_int (dedup_skips cl));
          m "client.endpoint_switches" "count" (float_of_int p.switches);
          Layers.observe ();
          (* The schedule fixes an open loop's throughput, so tracing
             shows up as longer puts instead. *)
          m "trace.overhead_share" "ratio"
            (1. -. (mean untraced /. mean (phase_latency p ~traced:true)));
        ]
  in
  let gaps = failover_gaps p.slots (List.map (fun k -> k.at) p.kills) in
  {
    Report.attempted = total;
    failed = total - List.length p.acked;
    problems;
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "throughput_ops_s" "ops/s"
          (float_of_int (List.length p.acked) /. (last_ack -. p.start));
        m "latency_p50_ms" "ms" p50;
        m "peak_rss_mb" "MB" peak_rss;
      ];
    figures =
      (m "latency_p99_ms" "ms" tail :: counts)
      @ [ m "put_p50_ms" "ms" p50; m "put_p99_ms" "ms" tail ]
      @ failover_figures p
      @ [ m "loadgen.max_lateness_ms" "ms" (max_lateness_ms p) ];
    layers;
    detail =
      [
        ( "kills",
          Obs.Json.List
            (List.map2
               (fun k gap ->
                 Obs.Json.Obj
                   [
                     ("at_s", Obs.Json.number (k.at -. p.start));
                     ("gap_ms", Obs.Json.number gap);
                     ("catchup_ms", Obs.Json.number k.catchup_ms);
                     ("restart_to_leader_ms", Obs.Json.number k.restart_to_leader_ms);
                   ])
               p.kills gaps) );
      ];
  }

(* ---- replicated-write ----------------------------------------------- *)

let replicated_write ~seed ~seconds ~traced ~tmp =
  let cl, client, setup_s = boot ~tmp ~seed in
  Fun.protect ~finally:(fun () -> Multi.close client; stop_cluster cl) @@ fun () ->
  let rng = Prob.Rng.of_pair seed 11 in
  let trace = Trace.create () in
  let puts = Sample.create () and lin = Sample.create () and plain = Sample.create () in
  let units = units_per_second * seconds in
  (* Latency percentiles are medians over blocks of consecutive units,
     so a storage or scheduling stall inside one block moves neither. *)
  let blocks = Array.init latency_blocks (fun _ -> Sample.create ()) in
  let block u = blocks.(u * latency_blocks / units) in
  let answered = ref 0 in
  let acked = ref [] and acked_count = ref 0 in
  let failed = ref 0 and wrong = ref 0 and attempted = ref 0 in
  let traced_s = ref 0. and untraced_s = ref 0. in
  let lag = ref 0 and stored_bytes = ref 0 and traced_puts = ref 0 in
  let switches = ref 0 in
  let before = stats client in
  for u = 0 to units - 1 do
    (* Traced runs trace every other unit, so both modes see the same
       log lengths. *)
    trace.Trace.enabled <- traced && u mod 2 = 1;
    let unit_start = Unix.gettimeofday () in
    Array.iteri
      (fun k op ->
        let id = (u * Array.length unit_pattern) + k + 2 in
        incr attempted;
        let pinned = Multi.current client in
        let t0 = Unix.gettimeofday () in
        let reply, check, sample =
          Trace.span trace ~request:id "request" @@ fun () ->
          match op with
          | `Put ->
              let name = Printf.sprintf "w%d" id in
              let s = scenario rng in
              let reply =
                Trace.span trace ~request:id "multi.call" (fun () ->
                    Multi.call client ~id (put name s))
              in
              let ok =
                match reply with
                | Ok json -> Obs.Json.member "stored" json = Some (Obs.Json.Bool true)
                | Error _ -> false
              in
              Result.iter
                (fun json ->
                  acked := (name, s, Obs.Json.to_string json) :: !acked;
                  incr acked_count)
                reply;
              (reply, ok, puts)
          | (`Lin_get | `Plain_get) as get ->
              let linearizable = get = `Lin_get in
              let target =
                if !acked_count = 0 then ("first", Probcons.Scenario.uniform ~protocol:"raft" ~n:3 ~p:0. ())
                else
                  let name, s, _ = List.nth !acked (Prob.Rng.int rng !acked_count) in
                  (name, s)
              in
              let reply =
                Trace.span trace ~request:id "multi.call" (fun () ->
                    Multi.call client ~id
                      (Wire.Scenario_get { name = fst target; linearizable }))
              in
              (reply, found_as reply target, if linearizable then lin else plain)
        in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        if Multi.current client <> pinned then incr switches;
        (match reply with
        | Error _ -> incr failed
        | Ok _ -> if not check then incr wrong);
        let ms = if Result.is_ok reply && check then ms else Float.infinity in
        if not trace.Trace.enabled then (
          Sample.add sample ms;
          Sample.add (block u) ms;
          if Float.is_finite ms then incr answered)
        else if op = `Put then (
          lag := max !lag (follower_lag cl);
          stored_bytes := !stored_bytes + snapshot_bytes cl;
          incr traced_puts))
      unit_pattern;
    let spent = Unix.gettimeofday () -. unit_start in
    if trace.Trace.enabled then traced_s := !traced_s +. spent
    else untraced_s := !untraced_s +. spent
  done;
  let after = stats client in
  let peak_rss = Report.peak_rss_mb () in
  (* A traced run then measures the failover layers: a phase of
     scheduled puts while the leader is stopped and restarted. *)
  let failover =
    if traced then Some (failover_phase cl ~seed ~seconds:failover_seconds ~traced:false)
    else None
  in
  let acked =
    List.rev !acked @ match failover with Some p -> p.acked | None -> []
  in
  let leader_id = Node.id (await_leader cl) in
  let problems = verify cl client acked in
  let p50, tail, counts =
    Report.windowed_latency (Array.to_list (Array.map (fun b -> Report.latency [ b ]) blocks))
  in
  let put_sorted = Sample.sorted_of_list [ puts ] in
  let _, put_tail = Sample.tail put_sorted in
  (* Growth: p50 of the last tenth of puts over that of the first. *)
  let in_order = Sample.to_array puts in
  let tenth = max 1 (Array.length in_order / 10) in
  let p50_of a = Array.sort Float.compare a; Sample.median a in
  let first = p50_of (Array.sub in_order 0 tenth) in
  let last = p50_of (Array.sub in_order (Array.length in_order - tenth) tenth) in
  let layers, failover_figures =
    match failover with
    | None -> ([], [])
    | Some p ->
        (* Untraced units and traced units take the same share of the
           run when tracing costs nothing. *)
        let overhead = 1. -. (!untraced_s /. !traced_s) in
        ( put_layers ~tmp cl acked ~leader_id
          @ server_layers before after
          @ failover_layers p
          @ [
              m "storage.bytes_per_put" "bytes"
                (float_of_int !stored_bytes /. float_of_int (max 1 !traced_puts));
              m "replica.follower_lag_max" "entries" (float_of_int (max !lag p.lag));
              m "replica.dedup_skips" "count" (float_of_int (dedup_skips cl));
              m "client.endpoint_switches" "count" (float_of_int (!switches + p.switches));
              Layers.observe ();
              m "trace.overhead_share" "ratio" overhead;
            ],
          failover_figures p )
  in
  let med s = Sample.median (Sample.sorted_of_list [ s ]) in
  {
    Report.attempted = !attempted;
    failed = !failed + !wrong;
    problems =
      (if !wrong > 0 then [ Printf.sprintf "%d replies did not match the acknowledged puts" !wrong ] else [])
      @ problems;
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "throughput_ops_s" "ops/s" (float_of_int !answered /. !untraced_s);
        m "latency_p50_ms" "ms" p50;
        m "peak_rss_mb" "MB" peak_rss;
      ];
    figures =
      (m "latency_p99_ms" "ms" tail :: counts)
      @ [
          m "put_p50_ms" "ms" (Sample.median put_sorted);
          m "put_p99_ms" "ms" put_tail;
          m "put_p50_growth" "ratio" (last /. first);
          m "lin_get_p50_ms" "ms" (med lin);
          m "plain_get_p50_ms" "ms" (med plain);
        ]
      @ failover_figures;
    layers;
    detail = [];
  }

