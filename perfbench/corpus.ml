(* Seeded request generators for the two service workloads.

   The program only ever sees the generated queries. Sizes follow a
   fixed schedule, so every seed asks for the same amount of work;
   the seed draws fault probabilities (and stakes, fleet seeds), which
   makes every cache key distinct without changing a query's cost. *)

module Wire = Service.Wire

type kind = Count_dp | Enumeration | Horizon | Fleet | Cheap

let kind_name = function
  | Count_dp -> "count_dp"
  | Enumeration -> "enumeration"
  | Horizon -> "horizon"
  | Fleet -> "fleet"
  | Cheap -> "cheap"

let kinds = [ Count_dp; Enumeration; Horizon; Fleet; Cheap ]

let ok_or_fail = function Ok x -> x | Error msg -> failwith msg

let prob rng lo hi = lo +. ((hi -. lo) *. Prob.Rng.float rng)

let analyze scenario = Wire.Analyze { scenario = ok_or_fail scenario }

let count_dp rng ~protocol ~n =
  let half = n / 2 in
  analyze
    (Probcons.Scenario.make ~protocol
       ~mix:[ (half, prob rng 0.001 0.05); (n - half, prob rng 0.001 0.05) ]
       ())

let fleet_params rng ~nodes ~ticks =
  {
    Wire.nodes;
    ticks;
    seed = Prob.Rng.int rng 1_000_000;
    quorum = None;
    target_nines = 3.0;
    dynamic = false;
  }

(* The cached-read corpus: 64 distinct cheap queries, 60 small count-DP
   analyses and 4 four-tick fleet-controller runs. *)
let cached ~seed =
  let rng = Prob.Rng.of_pair seed 1 in
  Array.init 64 (fun i ->
      if i < 60 then
        count_dp rng
          ~protocol:(if i mod 2 = 0 then "raft" else "pbft")
          ~n:(4 + (i mod 12))
      else
        let f = fleet_params rng ~nodes:4 ~ticks:4 in
        if i mod 2 = 0 then Wire.Fleet_recommend f else Wire.Fleet_ingest f)

let stake rng ~n =
  analyze
    (Probcons.Scenario.make ~protocol:"stake"
       ~stakes:(List.init n (fun _ -> 1. +. Float.round (9. *. Prob.Rng.float rng)))
       ~mix:[ (n, prob rng 0.001 0.05) ]
       ())

(* Raft over [n] nodes where every fourth node follows a two-state
   Markov failure process: the incremental horizon engine's path. *)
let horizon rng ~n =
  let p = prob rng 0.001 0.02 in
  let processes =
    List.init n (fun i ->
        if i mod 4 = 0 then
          ok_or_fail
            (Faultmodel.Failure_process.markov
               ~fail_rate:(prob rng 1e-4 1e-3)
               ~recover_rate:(prob rng 0.01 0.1))
        else Faultmodel.Failure_process.static p)
  in
  analyze
    (Probcons.Scenario.make ~protocol:"raft" ~processes ~horizon:8760.
       ~rounds:24 ~mix:[ (n, p) ] ())

let groups rng = [ (3, prob rng 0.001 0.05); (4, prob rng 0.001 0.05) ]

(* The analysis-mix schedule: each slot's kind and a generator for its
   query, given the slot's own random stream. *)
let schedule =
  [|
    (Count_dp, count_dp ~protocol:"raft" ~n:50);
    (Cheap, fun rng ->
        Wire.Availability
          { system = Wire.Majority 7; probs = Wire.Uniform (prob rng 0.001 0.05) });
    (Horizon, horizon ~n:50);
    (Enumeration, stake ~n:12);
    (Count_dp, count_dp ~protocol:"pbft" ~n:100);
    (Fleet, fun rng -> Wire.Fleet_recommend (fleet_params rng ~nodes:8 ~ticks:26));
    (Cheap, fun rng -> Wire.Committee { target_nines = 3.0; groups = groups rng });
    (Horizon, horizon ~n:100);
    (Count_dp, count_dp ~protocol:"raft" ~n:150);
    (Cheap, fun rng -> Wire.Plan { target_nines = 3.0; groups = groups rng });
    (Enumeration, stake ~n:14);
    (Horizon, horizon ~n:150);
    (Count_dp, count_dp ~protocol:"pbft" ~n:200);
    (Fleet, fun rng -> Wire.Fleet_ingest (fleet_params rng ~nodes:16 ~ticks:26));
    (Cheap, fun rng ->
        Wire.Markov
          { n = 5; quorum = None; afr = prob rng 0.01 0.1; mttr_hours = 24. });
    (Horizon, horizon ~n:200);
    (Count_dp, count_dp ~protocol:"raft" ~n:100);
    (Enumeration, stake ~n:16);
    (Cheap, fun rng ->
        Wire.Quorum_size { target_live_nines = 3.0; groups = groups rng });
    (Count_dp, count_dp ~protocol:"pbft" ~n:50);
    (Fleet, fun rng -> Wire.Fleet_recommend (fleet_params rng ~nodes:24 ~ticks:26));
  |]

(* The [k]-th request of the analysis mix. *)
let mix ~seed k =
  let kind, make = schedule.(k mod Array.length schedule) in
  (kind, make (Prob.Rng.of_pair seed (k + 2)))
