(* Per-layer costs, timed by calling each layer's public functions from
   the benchmark on the workload's own inputs (traced runs only). *)

module Wire = Service.Wire
module Frame = Service.Frame

let m = Report.m

let decode_frame =
  let decoder = Frame.create () in
  fun frame ->
    let bytes = Bytes.unsafe_of_string frame in
    Frame.feed decoder bytes (Bytes.length bytes);
    Frame.next decoder

(* The wire, frame and cache-key layers on one workload's requests and
   replies. [requests] are encoded request bodies, [replies] the reply
   bodies the server sends for them, [payloads] the rendered payloads
   inside those replies. Frame costs cover both directions of one
   operation: the request frame and the reply frame. *)
let codecs ~queries ~requests ~replies ~payloads =
  let pairs = Array.map2 (fun a b -> (a, b)) requests replies in
  let frames = Array.map (fun (a, b) -> (Frame.encode a, Frame.encode b)) pairs in
  [
    m "wire.parse_us" "us" (Sample.per_call_us requests Wire.parse_request);
    m "wire.encode_ok_us" "us"
      (Sample.per_call_us payloads (fun payload -> Wire.encode_ok ~id:7 ~payload));
    m "frame.encode_us" "us"
      (Sample.per_call_us pairs (fun (a, b) -> (Frame.encode a, Frame.encode b)));
    m "frame.decode_us" "us"
      (Sample.per_call_us frames (fun (a, b) -> (decode_frame a, decode_frame b)));
    m "cache.key_us" "us" (Sample.per_call_us queries Wire.canonical_key);
  ]

(* [Cache.find] on a private cache: hits when [hit], else lookups of
   keys that were never added, as on the analysis mix. *)
let cache_find ~hit keys =
  let registry = Obs.Metrics.create () in
  let cache = Service.Cache.create ~registry ~capacity:1024 () in
  let n = Array.length keys in
  let stored, probed =
    if hit then (keys, keys)
    else (Array.sub keys 0 (n / 2), Array.sub keys (n / 2) (n - (n / 2)))
  in
  Array.iter (fun k -> Service.Cache.add cache k "{}") stored;
  m "cache.find_us" "us" (Sample.per_call_us probed (Service.Cache.find cache))

let take k xs = List.filteri (fun i _ -> i < k) xs

let fleet_config (f : Wire.fleet_params) =
  let cfg =
    Fleetctl.Controller.default_config ~seed:f.Wire.seed ~ticks:f.Wire.ticks
      ~dynamic:f.Wire.dynamic ~nodes:f.Wire.nodes ()
  in
  {
    cfg with
    Fleetctl.Controller.quorum =
      Option.value f.Wire.quorum ~default:cfg.Fleetctl.Controller.quorum;
    target_live = Prob.Nines.to_prob f.Wire.target_nines;
  }

let node_probs scenario =
  Probcons.Scenario.mix scenario
  |> List.concat_map (fun (count, p) -> List.init count (fun _ -> p))
  |> Array.of_list

(* The enumeration inputs at one lane against the pool's default lane
   count; the results must be bit-identical. *)
let lane_ratio scenarios =
  if scenarios = [] then ([], true)
  else
    let time domains =
      let t0 = Unix.gettimeofday () in
      let results =
        List.map (fun s -> Corpus.ok_or_fail (Probcons.Registry.analyze ~domains s)) scenarios
      in
      (Unix.gettimeofday () -. t0, results)
    in
    let t1, r1 = time 1 in
    let td, rd = time (Parallel.Pool.default ()) in
    let same (a : Probcons.Analysis.result) (b : Probcons.Analysis.result) =
      Int64.bits_of_float a.p_safe = Int64.bits_of_float b.p_safe
      && Int64.bits_of_float a.p_live = Int64.bits_of_float b.p_live
      && Int64.bits_of_float a.p_safe_live = Int64.bits_of_float b.p_safe_live
    in
    ([ m "parallel.enumeration_lane_ratio" "ratio" (t1 /. td) ], List.for_all2 same r1 rd)

(* Router, registry, analysis, fleet, prob and parallel layers on up to
   [per_kind] queries of each kind the workload sends. Returns the
   metrics and whether the parallel engine stayed bit-identical. *)
let analysis ?(per_kind = 6) (queries : (Corpus.kind * Wire.query) list) =
  let of_kind k = take per_kind (List.filter_map (fun (k', q) -> if k = k' then Some q else None) queries) in
  let scenarios k =
    List.filter_map (function Wire.Analyze { scenario } -> Some scenario | _ -> None) (of_kind k)
  in
  let router =
    List.map
      (fun k ->
        m ("router.handle_ms." ^ Corpus.kind_name k) "ms"
          (Sample.median_ms (of_kind k) Service.Router.handle))
      Corpus.kinds
  in
  let run_analysis s =
    let proto = Corpus.ok_or_fail (Probcons.Registry.protocol_of s) in
    let fleet = Corpus.ok_or_fail (Probcons.Registry.fleet_of s) in
    match Probcons.Scenario.horizon s with
    | Some horizon ->
        let rounds = Option.value (Probcons.Scenario.rounds s) ~default:Probcons.Scenario.default_rounds in
        `Horizon (Probcons.Analysis.run_horizon ~times:(Probcons.Analysis.horizon_times ~horizon ~rounds) proto fleet)
    | None -> `Point (Probcons.Analysis.run ?at:(Probcons.Scenario.at s) proto fleet, Probcons.Scenario.size s)
  in
  let analysis =
    List.map
      (fun k ->
        m ("analysis.run_ms." ^ Corpus.kind_name k) "ms"
          (Sample.median_ms (scenarios k) run_analysis))
      Corpus.[ Count_dp; Enumeration; Horizon ]
  in
  let points =
    List.filter_map
      (fun s -> match run_analysis s with `Point p -> Some p | `Horizon _ -> None)
      (scenarios Corpus.Count_dp @ scenarios Corpus.Enumeration)
    |> Array.of_list
  in
  let render =
    Sample.per_call_us points (fun (r, n) ->
        Obs.Json.to_string (Probcons.Registry.payload ~n r))
  in
  let fleets =
    List.filter_map
      (function
        | Wire.Fleet_recommend f | Wire.Fleet_ingest f -> Some (fleet_config f)
        | _ -> None)
      (of_kind Corpus.Fleet)
  in
  let probs = List.map node_probs (scenarios Corpus.Count_dp) |> Array.of_list in
  let incremental =
    Array.map
      (fun ps ->
        let inc = Prob.Incremental.create ps in
        (inc, Array.length ps))
      probs
  in
  let step = ref 0 in
  let update (inc, n) =
    incr step;
    Prob.Incremental.update inc (!step mod n) (if !step land 1 = 0 then 0.01 else 0.02)
  in
  let lanes, identical = lane_ratio (scenarios Corpus.Enumeration) in
  ( router @ analysis
    @ [
        m "registry.render_us" "us" render;
        m "fleet.controller_run_ms" "ms" (Sample.median_ms fleets Fleetctl.Controller.run);
        m "prob.pmf_us" "us" (Sample.per_call_us probs Prob.Poisson_binomial.pmf);
        m "prob.incremental_update_us" "us" (Sample.per_call_us incremental update);
      ]
    @ lanes,
    identical )

(* The replica command, state, transport and Raft codec layers on the
   workload's own put commands. *)
let replica ops =
  let payloads = Array.map Replica.Command.to_string ops in
  let msg seq =
    Raft_sim.Raft_types.Append_entries
      {
        term = 3;
        leader_id = 0;
        prev_log_index = seq - 1;
        prev_log_term = 3;
        entries = [ { Raft_sim.Raft_types.term = 3; index = seq; command = Data seq } ];
        leader_commit = seq - 1;
      }
  in
  let envelopes = Array.mapi (fun i bytes -> (msg (i + 1), (i + 1, bytes))) payloads in
  let applies = Array.length ops * 8 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 8 do
    let state = Replica.State.create () in
    Array.iteri
      (fun i op -> ignore (Replica.State.apply state ~seq:(i + 1) op ~id:payloads.(i)))
      ops
  done;
  let apply_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (max 1 applies) in
  [
    m "command.encode_us" "us" (Sample.per_call_us ops Replica.Command.to_string);
    m "state.apply_us" "us" apply_us;
    m "transport.envelope_encode_us" "us"
      (Sample.per_call_us envelopes (fun (msg, payload) ->
           Replica.Transport.envelope_to_line ~src:0 ~dst:1 msg ~payloads:[ payload ]));
    m "raft_codec.msg_encode_us" "us"
      (Sample.per_call_us envelopes (fun (msg, _) ->
           Obs.Json.to_string (Raft_sim.Raft_codec.msg_to_json msg)));
  ]

(* One histogram observation on an enabled registry. *)
let observe () =
  let registry = Obs.Metrics.create ~enabled:true () in
  let h = Obs.Metrics.histogram ~registry ~family:"bench" "observe" in
  let calls = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to calls do
    Obs.Metrics.observe h (float_of_int (i land 1023) +. 0.5)
  done;
  m "obs.observe_ns" "ns" ((Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int calls)
