(* The two service workloads: [cached-read] and [analysis-mix].

   Both run an in-process [Service.Server] in its default configuration
   on a Unix socket, driven by closed-loop client threads, each on its
   own wire/3 connection with one request outstanding. Every reply is
   checked byte for byte against [Service.Router.handle] run in-process
   on the same query. *)

module Wire = Service.Wire
module Client = Service.Client
module Server = Service.Server

let m = Report.m

type workload = Cached_read | Analysis_mix

(* Closed-loop connections. The analysis mix uses one: the server's
   first worker lane computes on the reactor's domain, so with a second
   connection each reply waited for the other client's analysis to end
   (cheap queries took 10-20 ms) and the run measured that hand-off
   more than the engines. *)
let clients = function Cached_read -> 2 | Analysis_mix -> 1
let setups = 15

(* Traced runs alternate untraced and traced slices of this length, so
   both modes see the same server state. *)
let slice_seconds = 0.25

(* Throughput and latency percentiles are medians over windows of this
   length, each a whole number of slice pairs: the host's CPU speed
   dips for a second or so at a time, and a median over windows leaves
   the dips out. Analysis mix windows hold several schedule cycles, so
   each does similar work. *)
let window_seconds = function Cached_read -> 0.5 | Analysis_mix -> 2.5

let expected_body ~id = function
  | Ok json -> Wire.encode_ok ~id ~payload:(Obs.Json.to_string json)
  | Error (code, msg) -> Wire.encode_error ~id:(Some id) code msg

(* One closed-loop client: its connection, its span recorder, and what
   it saw. *)
type lane = {
  client : Client.t;
  trace : Trace.t;
  window_samples : Sample.t;
      (** Latency in ms of the requests sent untraced in the current
          window; summarized and cleared when the window ends, so the
          benchmark's own memory does not grow with throughput. *)
  mutable window : int;
  mutable windows_seen : (float * (float * float) * int) list;
      (** [Report.latency] of each finished window. *)
  by_kind : (Corpus.kind, Sample.t) Hashtbl.t;
      (** Analysis mix: latency in ms of untraced requests, per kind. *)
  answered : int array;  (** Untraced requests answered, per window. *)
  mutable untraced_ops : int;
  mutable traced_ops : int;
  mutable failed : int;
  mutable wrong : int;
  mutable sent : (int * Wire.query * string option) list;
      (** Analysis mix: every request id, query and reply body, checked
          once the window closes. *)
}

let lane ~windows client =
  {
    client;
    answered = Array.make windows 0;
    trace = Trace.create ();
    window_samples = Sample.create ();
    window = 0;
    windows_seen = [];
    by_kind = Hashtbl.create 5;
    untraced_ops = 0;
    traced_ops = 0;
    failed = 0;
    wrong = 0;
    sent = [];
  }

(* Summarize the lane's current window, if it saw requests, and move
   on to window [next]. *)
let close_window l next =
  if Sample.length l.window_samples > 0 then
    l.windows_seen <- Report.latency [ l.window_samples ] :: l.windows_seen;
  Sample.clear l.window_samples;
  l.window <- next

let connect socket =
  Client.connect ~retry_for:5. ~timeout:30. (Client.Unix_path socket)

(* Start a server and get the workload's first requests answered: the
   whole corpus on cached-read, which fills the reply cache, or one
   query of the mix's first kind on analysis-mix. [first] holds those
   request bodies with their reference replies. Returns the server, a
   connected client, the seconds this took and the wrong replies. *)
let setup ~tmp ~first i =
  let socket = Filename.concat tmp (Printf.sprintf "s%d.sock" i) in
  let t0 = Unix.gettimeofday () in
  let server = Server.start { Server.default_config with socket_path = Some socket } in
  let client = connect socket in
  let wrong =
    Array.fold_left
      (fun wrong (id, body, expected) ->
        match Client.call_line client ~id body with
        | Ok reply when reply = expected -> wrong
        | _ -> wrong + 1)
      0 first
  in
  (server, socket, client, Unix.gettimeofday () -. t0, wrong)

let stats client =
  match Client.call client ~id:0 Wire.Stats with
  | Ok json -> json
  | Error (_, msg) -> failwith ("stats failed: " ^ msg)

let stat json path =
  let rec go j = function
    | [] -> Option.value (Obs.Json.to_float j) ~default:0.
    | k :: rest -> (
        match Obs.Json.member k j with Some j -> go j rest | None -> 0.)
  in
  go json path

(* Per-layer counters from the server's [stats], as deltas over the
   measured window. *)
let server_layers before after =
  let d path = stat after path -. stat before path in
  let hits = d [ "cache"; "hits" ] and misses = d [ "cache"; "misses" ] in
  let lookups = hits +. misses in
  [
    m "cache.hit_ratio" "ratio" (if lookups = 0. then 0. else hits /. lookups);
    m "cache.lookups" "count" lookups;
    m "cache.evictions" "count" (d [ "cache"; "evictions" ]);
    m "server.loop_iterations_per_op" "ratio"
      (d [ "reactor"; "loop_iterations" ] /. Float.max 1. (d [ "requests"; "total" ]));
    m "server.write_stalls" "count" (d [ "reactor"; "write_backpressure_stalls" ]);
    m "server.overloaded" "count" (d [ "requests"; "overloaded" ]);
    m "server.deadline_exceeded" "count" (d [ "requests"; "deadline_exceeded" ]);
  ]

let run ~workload ~seed ~seconds ~traced ~tmp =
  let corpus = Corpus.cached ~seed in
  let corpus_bodies =
    Array.mapi (fun id query -> Wire.encode_request { Wire.id; query }) corpus
  in
  let corpus_expected =
    if workload = Cached_read then
      Array.mapi (fun id q -> expected_body ~id (Service.Router.handle q)) corpus
    else [||]
  in
  let first =
    match workload with
    | Cached_read -> Array.mapi (fun id body -> (id, body, corpus_expected.(id))) corpus_bodies
    | Analysis_mix ->
        (* Same kind and size as the mix's first request, another key. *)
        let _, query = Corpus.mix ~seed:(seed + 7919) 0 in
        [| (0, Wire.encode_request { Wire.id = 0; query }, expected_body ~id:0 (Service.Router.handle query)) |]
  in
  (* Set up several times, keeping only the last server running. *)
  let rec boot i times wrong =
    let ((server, _, client, s, w) as booted) = setup ~tmp ~first i in
    if i + 1 < setups then (
      Client.close client;
      Server.stop server;
      boot (i + 1) (s :: times) (wrong + w))
    else (booted, Array.of_list (s :: times), wrong + w)
  in
  let (server, socket, control, _, _), times, warm_wrong = boot 0 [] 0 in
  Array.sort Float.compare times;
  let setup_s = Sample.median times in
  Fun.protect ~finally:(fun () -> Client.close control; Server.stop server)
  @@ fun () ->
  let window = window_seconds workload in
  let windows = int_of_float (float_of_int seconds /. window) in
  let lanes =
    Array.init (clients workload) (fun _ -> lane ~windows (connect socket))
  in
  let next = Atomic.make 0 in
  let before = stats control in
  let start = Unix.gettimeofday () in
  let stop_at = start +. float_of_int seconds in
  let drive lane_id =
    let l = lanes.(lane_id) in
    let rng = Prob.Rng.of_pair seed (100 + lane_id) in
    let rec loop () =
      let now = Unix.gettimeofday () in
      if now < stop_at then (
        let traced_now =
          traced && int_of_float ((now -. start) /. slice_seconds) mod 2 = 1
        in
        l.trace.enabled <- traced_now;
        let t0 = Unix.gettimeofday () in
        let kind = ref Corpus.Cheap in
        let outcome =
          Trace.span l.trace ~request:0 "request" @@ fun () ->
          match workload with
          | Cached_read ->
              let id = Prob.Rng.int rng (Array.length corpus) in
              let reply =
                Trace.span l.trace ~request:id "client.call_line" (fun () ->
                    Client.call_line l.client ~id corpus_bodies.(id))
              in
              Trace.span l.trace ~request:id "check" (fun () ->
                  match reply with
                  | Ok body when body = corpus_expected.(id) -> `Ok
                  | Ok _ -> `Wrong
                  | Error _ -> `Failed)
          | Analysis_mix ->
              let id = Atomic.fetch_and_add next 1 in
              let k, query = Corpus.mix ~seed id in
              kind := k;
              let body =
                Trace.span l.trace ~request:id "wire.encode_request" (fun () ->
                    Wire.encode_request { Wire.id; query })
              in
              let reply =
                Trace.span l.trace ~request:id "client.call_line" (fun () ->
                    Client.call_line l.client ~id body)
              in
              l.sent <- (id, query, Result.to_option reply) :: l.sent;
              if Result.is_ok reply then `Ok else `Failed
        in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        (match outcome with
        | `Ok -> ()
        | `Wrong -> l.wrong <- l.wrong + 1
        | `Failed -> l.failed <- l.failed + 1);
        (* A failed request counts as missing every latency limit. *)
        let ms = if outcome = `Ok then ms else Float.infinity in
        if traced_now then l.traced_ops <- l.traced_ops + 1
        else (
          l.untraced_ops <- l.untraced_ops + 1;
          let w = int_of_float ((t0 -. start) /. window) in
          if w < windows then (
            if w <> l.window then close_window l w;
            Sample.add l.window_samples ms;
            if outcome = `Ok then l.answered.(w) <- l.answered.(w) + 1);
          if workload = Analysis_mix then (
            match Hashtbl.find_opt l.by_kind !kind with
            | Some s -> Sample.add s ms
            | None ->
                let s = Sample.create () in
                Sample.add s ms;
                Hashtbl.replace l.by_kind !kind s));
        loop ())
    in
    loop ()
  in
  (* The clients get a domain of their own: the server's first worker
     lane computes on the main domain, beside the reactor, and would
     otherwise hold the runtime lock the clients need as well. *)
  Domain.join
    (Domain.spawn (fun () ->
         Array.init (clients workload) (fun i -> Thread.create drive i) |> Array.iter Thread.join));
  let elapsed = Unix.gettimeofday () -. start in
  let after = stats control in
  let peak_rss = Report.peak_rss_mb () in
  Array.iter (fun l -> Client.close l.client) lanes;
  let all = Array.to_list lanes in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 all in
  let untraced_ops = sum (fun l -> l.untraced_ops) in
  let traced_ops = sum (fun l -> l.traced_ops) in
  (* The analysis mix is checked after the window, on two domains: the
     reference costs as much as the workload itself. *)
  let sent = List.concat_map (fun l -> l.sent) all |> Array.of_list in
  let mix_wrong =
    Parallel.Pool.map ~domains:2 (Array.length sent) (fun i ->
        let id, query, reply = sent.(i) in
        match reply with
        | None -> false
        | Some body -> body <> expected_body ~id (Service.Router.handle query))
    |> Array.fold_left (fun n bad -> if bad then n + 1 else n) 0
  in
  let wrong = sum (fun l -> l.wrong) + mix_wrong + warm_wrong in
  let failed = sum (fun l -> l.failed) in
  List.iter (fun l -> close_window l windows) all;
  let p50, tail, counts =
    Report.windowed_latency (List.concat_map (fun l -> l.windows_seen) all)
  in
  (* In a traced run only half of each window is untraced. *)
  let per_window =
    Array.init windows (fun w -> float_of_int (sum (fun l -> l.answered.(w))))
  in
  Array.sort Float.compare per_window;
  let throughput =
    Sample.median per_window /. (if traced then window /. 2. else window)
  in
  let layers, bit_identical =
    if not traced then ([], true)
    else
      let queries, requests, replies =
        match workload with
        | Cached_read -> (corpus, corpus_bodies, corpus_expected)
        | Analysis_mix ->
            let checked =
              Array.to_list sent
              |> List.filter_map (fun (id, q, r) -> Option.map (fun r -> (id, q, r)) r)
              |> List.filteri (fun i _ -> i < 256)
              |> Array.of_list
            in
            ( Array.map (fun (_, q, _) -> q) checked,
              Array.map (fun (id, query, _) -> Wire.encode_request { Wire.id; query }) checked,
              Array.map (fun (_, _, r) -> r) checked )
      in
      let payloads =
        Array.map
          (fun reply ->
            match Wire.parse_response reply with
            | Ok { Wire.body = Ok json; _ } -> Obs.Json.to_string json
            | _ -> "null")
          replies
      in
      let codecs = Layers.codecs ~queries ~requests ~replies ~payloads in
      let keys = Array.map Wire.canonical_key queries in
      let find = Layers.cache_find ~hit:(workload = Cached_read) keys in
      (* The analysis layers are timed on the analysis mix's queries on
         both workloads, so a run of either measures every layer. *)
      let analysis, identical =
        Layers.analysis (List.init (Array.length Corpus.schedule * 3) (Corpus.mix ~seed))
      in
      let traced_rate = float_of_int traced_ops /. (elapsed /. 2.) in
      let untraced_rate = float_of_int untraced_ops /. (elapsed /. 2.) in
      let decomposition =
        if workload <> Cached_read then []
        else
          let cost name =
            match List.find_opt (fun x -> x.Report.name = name) (find :: codecs) with
            | Some x -> x.Report.value
            | None -> 0.
          in
          let accounted =
            List.fold_left ( +. ) 0.
              (List.map cost
                 [ "wire.parse_us"; "cache.key_us"; "cache.find_us"; "wire.encode_ok_us";
                   "frame.encode_us"; "frame.decode_us" ])
          in
          [ m "cached_read.unaccounted_share" "ratio" (1. -. (accounted /. (p50 *. 1000.))) ]
      in
      ( (find :: codecs) @ server_layers before after @ analysis
        @ [
            Layers.observe ();
            m "trace.overhead_share" "ratio" (1. -. (traced_rate /. untraced_rate));
          ]
        @ decomposition,
        identical )
  in
  let spans = Trace.self_times (List.map (fun l -> l.trace) all) in
  let problems =
    (if wrong > 0 then [ Printf.sprintf "%d replies differ from the in-process reference" wrong ] else [])
    @ if bit_identical then [] else [ "parallel enumeration is not bit-identical" ]
  in
  {
    Report.attempted = untraced_ops + traced_ops;
    failed = failed + wrong;
    problems;
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "throughput_ops_s" "ops/s" throughput;
        m "latency_p50_ms" "ms" p50;
        m "peak_rss_mb" "MB" peak_rss;
      ];
    figures =
      (m "latency_p99_ms" "ms" tail :: counts)
      @ (if workload <> Analysis_mix then []
         else
           List.map
             (fun k ->
               let samples = List.filter_map (fun l -> Hashtbl.find_opt l.by_kind k) all in
               m ("latency_p50_ms." ^ Corpus.kind_name k) "ms"
                 (Sample.median (Sample.sorted_of_list samples)))
             Corpus.kinds);
    layers;
    detail =
      [
        ("setup_s", Obs.Json.List (Array.to_list (Array.map Obs.Json.number times)));
        ( "spans",
          Obs.Json.List
            (List.map
               (fun (name, n, self_us) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.String name);
                     ("count", Obs.Json.Int n);
                     ("self_us", Obs.Json.number self_us);
                   ])
               spans) );
      ];
  }
