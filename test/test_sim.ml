(* Tests for the discrete-event simulator substrate: event queue,
   engine, network, vector, fault injector, trace. *)

open Dessim

(* --- Event queue --------------------------------------------------------- *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  let pop () = match Event_queue.pop q with Some (_, x) -> x | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:5. i
  done;
  for i = 0 to 9 do
    match Event_queue.pop q with
    | Some (_, x) -> Alcotest.(check int) "FIFO within timestamp" i x
    | None -> Alcotest.fail "queue exhausted early"
  done

let test_queue_interleaved () =
  let q = Event_queue.create () in
  (* Push/pop interleaving across growth boundaries. *)
  for i = 0 to 99 do
    Event_queue.push q ~time:(float_of_int (100 - i)) i
  done;
  Alcotest.(check int) "size" 100 (Event_queue.size q);
  Alcotest.(check (option (float 0.))) "peek" (Some 1.) (Event_queue.peek_time q);
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, _) ->
        if t < !last then Alcotest.fail "order violated";
        last := t;
        incr count;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all drained" 100 !count

let test_queue_nan_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: NaN time") (fun () ->
      Event_queue.push q ~time:nan ())

(* --- Engine --------------------------------------------------------------- *)

let test_engine_executes_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~delay:10. (fun () -> log := "b" :: !log));
  ignore (Engine.schedule engine ~delay:5. (fun () -> log := "a" :: !log));
  ignore (Engine.schedule engine ~delay:20. (fun () -> log := "c" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 20. (Engine.now engine);
  Alcotest.(check int) "three executed" 3 (Engine.events_executed engine)

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule engine ~delay:1. (fun () ->
         incr hits;
         ignore (Engine.schedule engine ~delay:1. (fun () -> incr hits))));
  Engine.run engine;
  Alcotest.(check int) "both ran" 2 !hits;
  Alcotest.(check (float 0.)) "clock" 2. (Engine.now engine)

let test_engine_cancel () =
  let engine = Engine.create () in
  let hits = ref 0 in
  let handle = Engine.schedule engine ~delay:1. (fun () -> incr hits) in
  Engine.cancel handle;
  Engine.run engine;
  Alcotest.(check int) "cancelled" 0 !hits

let test_engine_until () =
  let engine = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule engine ~delay:1. (fun () -> incr hits));
  ignore (Engine.schedule engine ~delay:100. (fun () -> incr hits));
  Engine.run ~until:50. engine;
  Alcotest.(check int) "only early event" 1 !hits;
  (* The late event still fires if we keep running. *)
  Engine.run engine;
  Alcotest.(check int) "late event after resume" 2 !hits

let test_engine_stop () =
  let engine = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule engine ~delay:1. (fun () ->
         incr hits;
         Engine.stop engine));
  ignore (Engine.schedule engine ~delay:2. (fun () -> incr hits));
  Engine.run engine;
  Alcotest.(check int) "stopped after first" 1 !hits

let test_engine_negative_delay () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule engine ~delay:(-1.) ignore));
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at engine ~time:(-1.) ignore))

let test_engine_determinism () =
  let run seed =
    let engine = Engine.create ~seed () in
    let draws = ref [] in
    for _ = 1 to 5 do
      draws := Prob.Rng.float (Engine.rng engine) :: !draws
    done;
    !draws
  in
  Alcotest.(check bool) "same seed same draws" true (run 3 = run 3);
  Alcotest.(check bool) "different seeds differ" true (run 3 <> run 4)

let test_engine_max_events_backstop () =
  let engine = Engine.create () in
  let rec loop () = ignore (Engine.schedule engine ~delay:1. loop) in
  loop ();
  Engine.run ~max_events:1000 engine;
  Alcotest.(check int) "bounded" 1000 (Engine.events_executed engine)

(* Without [max_events], [run] stops a runaway protocol after 10
   million events. *)
let test_engine_default_backstop () =
  let engine = Engine.create () in
  let rec loop () = ignore (Engine.schedule engine ~delay:1. loop) in
  loop ();
  Engine.run engine;
  Alcotest.(check int) "run stops at its backstop" 10_000_000
    (Engine.events_executed engine)

(* --- Network ---------------------------------------------------------------- *)

let make_net ?latency ?drop_probability n =
  let engine = Engine.create ~seed:17 () in
  let net = Network.create ~engine ~n ?latency ?drop_probability () in
  (engine, net)

let test_network_delivery () =
  let engine, net = make_net 2 in
  let received = ref [] in
  Network.set_handler net 1 (fun ~src msg -> received := (src, msg) :: !received);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !received;
  Alcotest.(check int) "sent count" 1 (Network.messages_sent net);
  Alcotest.(check int) "delivered count" 1 (Network.messages_delivered net)

let test_network_latency_bounds () =
  let engine, net = make_net ~latency:(Network.Uniform { lo = 5.; hi = 10. }) 2 in
  let time = ref 0. in
  Network.set_handler net 1 (fun ~src:_ _ -> time := Engine.now engine);
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check bool) "within bounds" true (!time >= 5. && !time <= 10.)

let test_network_down_node_drops () =
  let engine, net = make_net 2 in
  let received = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr received);
  Network.set_down net 1 true;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "dropped" 0 !received;
  Alcotest.(check bool) "is_down" true (Network.is_down net 1);
  (* Sender down drops too. *)
  Network.set_down net 1 false;
  Network.set_down net 0 true;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "sender down" 0 !received

let test_network_in_flight_to_crashed () =
  (* A message already in flight when the destination crashes must be
     dropped at delivery time. *)
  let engine, net = make_net ~latency:(Network.Fixed 10.) 2 in
  let received = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr received);
  Network.send net ~src:0 ~dst:1 ();
  ignore (Engine.schedule engine ~delay:5. (fun () -> Network.set_down net 1 true));
  Engine.run engine;
  Alcotest.(check int) "in-flight dropped" 0 !received

let test_network_partition_heal () =
  let engine, net = make_net ~latency:(Network.Fixed 1.) 4 in
  let received = Array.make 4 0 in
  for i = 0 to 3 do
    Network.set_handler net i (fun ~src:_ _ -> received.(i) <- received.(i) + 1)
  done;
  Network.partition net [ 0; 1 ] [ 2; 3 ];
  Network.send net ~src:0 ~dst:2 ();
  (* blocked *)
  Network.send net ~src:2 ~dst:3 ();
  (* same side, flows *)
  Network.send net ~src:0 ~dst:1 ();
  (* same side, flows *)
  Engine.run engine;
  Alcotest.(check int) "cross-partition blocked" 0 received.(2);
  Alcotest.(check int) "same side flows (right)" 1 received.(3);
  Alcotest.(check int) "same side flows (left)" 1 received.(1);
  Network.heal net;
  Network.send net ~src:0 ~dst:2 ();
  Engine.run engine;
  Alcotest.(check int) "healed" 1 received.(2)

let test_network_broadcast () =
  let engine, net = make_net 5 in
  let received = ref 0 in
  for i = 0 to 4 do
    Network.set_handler net i (fun ~src:_ _ -> incr received)
  done;
  Network.broadcast net ~src:2 ();
  Engine.run engine;
  Alcotest.(check int) "n-1 deliveries" 4 !received

let test_network_lognormal_latency () =
  (* The queueing-tail model: latency >= base, with occasional spikes
     well past it. *)
  let engine, net =
    make_net ~latency:(Network.Lognormal_ish { base = 5.; mean_extra = 10. }) 2
  in
  let latencies = ref [] in
  let sent_at = ref 0. in
  Network.set_handler net 1 (fun ~src:_ _ ->
      latencies := (Engine.now engine -. !sent_at) :: !latencies);
  for _ = 1 to 2000 do
    sent_at := Engine.now engine;
    Network.send net ~src:0 ~dst:1 ();
    Engine.run engine
  done;
  List.iter (fun l -> if l < 5. then Alcotest.fail "below base latency") !latencies;
  let mean = List.fold_left ( +. ) 0. !latencies /. 2000. in
  Alcotest.(check bool) "mean ~ base + tail" true (Float.abs (mean -. 15.) < 1.);
  Alcotest.(check bool) "tail spikes exist" true (List.exists (fun l -> l > 30.) !latencies)

let test_network_drop_probability () =
  let engine, net = make_net ~latency:(Network.Fixed 1.) ~drop_probability:0.5 2 in
  let received = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr received);
  for _ = 1 to 2000 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  let fraction = float_of_int !received /. 2000. in
  Alcotest.(check bool) "about half dropped" true (Float.abs (fraction -. 0.5) < 0.05)

let test_network_validation () =
  let engine = Engine.create () in
  Alcotest.check_raises "bad n" (Invalid_argument "Network.create: n must be positive")
    (fun () -> ignore (Network.create ~engine ~n:0 () : unit Network.t));
  let net : unit Network.t = Network.create ~engine ~n:2 () in
  Alcotest.check_raises "bad node" (Invalid_argument "Network: node id out of range")
    (fun () -> Network.send net ~src:0 ~dst:5 ())

(* --- Vec ---------------------------------------------------------------------- *)

let test_vec_operations () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Alcotest.(check (option int)) "no last" None (Vec.last v);
  for i = 0 to 20 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 21 (Vec.length v);
  Alcotest.(check int) "get" 7 (Vec.get v 7);
  Alcotest.(check (option int)) "last" (Some 20) (Vec.last v);
  Vec.set v 0 99;
  Alcotest.(check int) "set" 99 (Vec.get v 0);
  Vec.truncate v 5;
  Alcotest.(check int) "truncated" 5 (Vec.length v);
  Alcotest.(check (list int)) "to_list" [ 99; 1; 2; 3; 4 ] (Vec.to_list v);
  let sum = ref 0 in
  Vec.iteri (fun i x -> sum := !sum + i + x) v;
  Alcotest.(check int) "iteri" (10 + 99 + 1 + 2 + 3 + 4) !sum;
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 5));
  Alcotest.check_raises "bad truncate" (Invalid_argument "Vec.truncate") (fun () ->
      Vec.truncate v 6)

(* --- Fault injector -------------------------------------------------------------- *)

let test_injector_crash_restart () =
  let engine = Engine.create () in
  let down_log = ref [] in
  Fault_injector.apply ~engine
    ~set_down:(fun node flag -> down_log := (Engine.now engine, node, flag) :: !down_log)
    ~set_byzantine:(fun _ _ -> Alcotest.fail "no byzantine expected")
    [ (1, Fault_injector.Crash_restart { at = 10.; back_at = 25. }) ];
  Engine.run engine;
  Alcotest.(check (list (triple (float 0.) int bool)))
    "crash then restart"
    [ (10., 1, true); (25., 1, false) ]
    (List.rev !down_log)

let test_injector_rejects_bad_restart () =
  let engine = Engine.create () in
  Alcotest.check_raises "restart before crash"
    (Invalid_argument "Fault_injector: restart before crash") (fun () ->
      Fault_injector.apply ~engine
        ~set_down:(fun _ _ -> ())
        ~set_byzantine:(fun _ _ -> ())
        [ (0, Fault_injector.Crash_restart { at = 10.; back_at = 5. }) ])

let test_injector_of_failed_nodes () =
  Alcotest.(check int) "two entries" 2
    (List.length (Fault_injector.of_failed_nodes [ 1; 3 ]));
  match Fault_injector.of_failed_nodes ~byzantine:true ~at:5. [ 2 ] with
  | [ (2, Fault_injector.Byzantine_from 5.) ] -> ()
  | _ -> Alcotest.fail "unexpected plan shape"

let test_injector_sample_plan_statistics () =
  let rng = Prob.Rng.create 77 in
  let crash_probs = Array.make 1 0.3 and byz_probs = Array.make 1 0.1 in
  let crash = ref 0 and byz = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    List.iter
      (fun (_, fault) ->
        match fault with
        | Fault_injector.Crash_at _ -> incr crash
        | Fault_injector.Byzantine_from _ -> incr byz
        | Fault_injector.Crash_restart _ -> ())
      (Fault_injector.sample_plan rng ~crash_probs ~byz_probs)
  done;
  let f x = float_of_int !x /. float_of_int trials in
  Alcotest.(check bool) "crash rate" true (Float.abs (f crash -. 0.3) < 0.02);
  Alcotest.(check bool) "byz rate" true (Float.abs (f byz -. 0.1) < 0.02)

let test_injector_byzantine_precedence () =
  (* Regression: when the probability mass of the two fault classes
     overlaps, the Byzantine band wins. Forcing both to 1.0 must yield
     an all-Byzantine plan, never a crash. *)
  let rng = Prob.Rng.create 3 in
  let n = 16 in
  let ones = Array.make n 1.0 in
  let plan = Fault_injector.sample_plan rng ~crash_probs:ones ~byz_probs:ones in
  Alcotest.(check int) "every node faulted" n (List.length plan);
  List.iter
    (fun (_, fault) ->
      match fault with
      | Fault_injector.Byzantine_from _ -> ()
      | _ -> Alcotest.fail "byzantine must win over crash")
    plan;
  (* Certain crash with no Byzantine mass still crashes every node. *)
  let plan =
    Fault_injector.sample_plan rng ~crash_probs:ones
      ~byz_probs:(Array.make n 0.0)
  in
  Alcotest.(check int) "every node crashed" n (List.length plan);
  List.iter
    (fun (_, fault) ->
      match fault with
      | Fault_injector.Crash_at _ -> ()
      | _ -> Alcotest.fail "expected crash")
    plan;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument
       "Fault_injector.sample_plan: probability arrays differ in length")
    (fun () ->
      ignore
        (Fault_injector.sample_plan rng ~crash_probs:ones
           ~byz_probs:(Array.make (n - 1) 0.0)))

(* --- Trace -------------------------------------------------------------------------- *)

let test_trace_recording () =
  let trace = Trace.create () in
  Trace.record trace ~time:1. ~node:0 ~tag:"commit" ~detail:"a";
  Trace.record trace ~time:2. ~node:1 ~tag:"crash" ~detail:"";
  Trace.record trace ~time:3. ~node:0 ~tag:"commit" ~detail:"b";
  Alcotest.(check int) "three entries" 3 (List.length (Trace.entries trace));
  Alcotest.(check int) "two commits" 2 (Trace.count trace ~tag:"commit");
  Alcotest.(check int) "filter" 1 (List.length (Trace.filter trace ~tag:"crash"));
  match Trace.entries trace with
  | first :: _ -> Alcotest.(check (float 0.)) "chronological" 1. first.Trace.time
  | [] -> Alcotest.fail "entries missing"

let suite =
  [
    Alcotest.test_case "queue ordering" `Quick test_queue_ordering;
    Alcotest.test_case "queue FIFO ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue interleaved" `Quick test_queue_interleaved;
    Alcotest.test_case "queue rejects NaN" `Quick test_queue_nan_rejected;
    Alcotest.test_case "engine order" `Quick test_engine_executes_in_order;
    Alcotest.test_case "engine nested" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine until/resume" `Quick test_engine_until;
    Alcotest.test_case "engine stop" `Quick test_engine_stop;
    Alcotest.test_case "engine validation" `Quick test_engine_negative_delay;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "engine max events" `Quick test_engine_max_events_backstop;
    Alcotest.test_case "engine default backstop" `Slow test_engine_default_backstop;
    Alcotest.test_case "network delivery" `Quick test_network_delivery;
    Alcotest.test_case "network latency bounds" `Quick test_network_latency_bounds;
    Alcotest.test_case "network down drops" `Quick test_network_down_node_drops;
    Alcotest.test_case "network in-flight drop" `Quick test_network_in_flight_to_crashed;
    Alcotest.test_case "network partition/heal" `Quick test_network_partition_heal;
    Alcotest.test_case "network broadcast" `Quick test_network_broadcast;
    Alcotest.test_case "network lognormal latency" `Slow test_network_lognormal_latency;
    Alcotest.test_case "network drop probability" `Slow test_network_drop_probability;
    Alcotest.test_case "network validation" `Quick test_network_validation;
    Alcotest.test_case "vec operations" `Quick test_vec_operations;
    Alcotest.test_case "injector crash/restart" `Quick test_injector_crash_restart;
    Alcotest.test_case "injector validation" `Quick test_injector_rejects_bad_restart;
    Alcotest.test_case "injector plan shape" `Quick test_injector_of_failed_nodes;
    Alcotest.test_case "injector sampling stats" `Slow test_injector_sample_plan_statistics;
    Alcotest.test_case "injector byzantine precedence" `Quick test_injector_byzantine_precedence;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
  ]
