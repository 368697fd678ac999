(* Counter totals must not depend on how many domains executed the
   chunks: everything below is incremented per-chunk or per-config with
   chunk boundaries fixed by [Parallel.Chunked], so 1-domain and
   N-domain runs merge to identical totals. *)
let m_runs = Obs.Metrics.counter ~family:"analysis" "runs"
let m_configs = Obs.Metrics.counter ~family:"analysis" "configs_evaluated"
let m_chunks = Obs.Metrics.counter ~family:"analysis" "chunks"
let m_chunk_seconds = Obs.Metrics.histogram ~family:"analysis" "chunk_seconds"
let m_workers = Obs.Metrics.gauge ~family:"analysis" "workers"
let m_mc_trials = Obs.Metrics.counter ~family:"analysis" "mc_trials"
let m_mc_safe = Obs.Metrics.counter ~family:"analysis" "mc_safe_hits"
let m_mc_live = Obs.Metrics.counter ~family:"analysis" "mc_live_hits"
let m_mc_both = Obs.Metrics.counter ~family:"analysis" "mc_both_hits"

type strategy =
  | Auto
  | Count_dp
  | Enumeration
  | Monte_carlo of int

type result = {
  protocol : string;
  p_safe : float;
  p_live : float;
  p_safe_live : float;
  engine : string;
  ci_safe : (float * float) option;
  ci_live : (float * float) option;
  ci_safe_live : (float * float) option;
}

(* "enumeration-binary/8d": the engine name records how many domains
   produced the numbers (no suffix when sequential). *)
let engine_tag ~workers base =
  if workers > 1 then Printf.sprintf "%s/%dd" base workers else base

let no_ci protocol ~engine ~p_safe ~p_live ~p_safe_live =
  {
    protocol;
    p_safe = Prob.Math_utils.clamp_prob p_safe;
    p_live = Prob.Math_utils.clamp_prob p_live;
    p_safe_live = Prob.Math_utils.clamp_prob p_safe_live;
    engine;
    ci_safe = None;
    ci_live = None;
    ci_safe_live = None;
  }

(* Sum the probability of each (byz, crashed) cell [cells] hands to
   [add], in that order, under the protocol's count predicates,
   Kahan-compensated. A count distribution's total mass is 1 up to
   float rounding; dividing by the mass summed removes the drift, so
   structurally certain predicates report exactly 1. *)
let count_result (protocol : Protocol.t) ~engine cells =
  let safe_count, live_count =
    match (protocol.safe.by_count, protocol.live.by_count) with
    | Some s, Some l -> (s, l)
    | _ -> invalid_arg "Analysis: count engine needs count predicates"
  in
  let open Prob.Math_utils in
  let p_safe = ref kahan_zero
  and p_live = ref kahan_zero
  and p_both = ref kahan_zero
  and mass = ref kahan_zero in
  cells (fun ~byz ~crashed p ->
      if p > 0. then begin
        mass := kahan_add !mass p;
        let safe = safe_count ~byz ~crashed in
        let live = live_count ~byz ~crashed in
        if safe then p_safe := kahan_add !p_safe p;
        if live then p_live := kahan_add !p_live p;
        if safe && live then p_both := kahan_add !p_both p
      end);
  let mass = kahan_total !mass in
  let normalize k =
    let p = kahan_total k in
    if mass > 0. then p /. mass else p
  in
  no_ci protocol.name ~engine ~p_safe:(normalize !p_safe)
    ~p_live:(normalize !p_live) ~p_safe_live:(normalize !p_both)

let run_count_dp protocol ~crash_probs ~byz_probs =
  count_result protocol ~engine:"count-dp" (fun add ->
      let dist = Config.joint_count_distribution ~crash_probs ~byz_probs in
      let n = Array.length crash_probs in
      for b = 0 to n do
        for c = 0 to n - b do
          add ~byz:b ~crashed:c dist.(b).(c)
        done
      done)

(* Per-chunk Kahan-compensated partial sums over a configuration
   iterator slice. Chunk boundaries and per-chunk float order are fixed
   by Chunked, so the totals are bit-identical across domain counts. *)
let eval_range (protocol : Protocol.t) ~crash_probs ~byz_probs iter_range ~lo ~hi =
  let open Prob.Math_utils in
  let span = Obs.Span.start m_chunk_seconds in
  let s = ref kahan_zero and l = ref kahan_zero and b = ref kahan_zero in
  iter_range ~lo ~hi (fun config ->
      let p = Config.probability ~crash_probs ~byz_probs config in
      if p > 0. then begin
        let safe = protocol.safe.full config and live = protocol.live.full config in
        if safe then s := kahan_add !s p;
        if live then l := kahan_add !l p;
        if safe && live then b := kahan_add !b p
      end);
  Obs.Metrics.incr m_chunks;
  Obs.Metrics.add m_configs (hi - lo);
  Obs.Span.stop span;
  (kahan_total !s, kahan_total !l, kahan_total !b)

let run_enumeration ?domains (protocol : Protocol.t) ~crash_probs ~byz_probs =
  let n = Array.length crash_probs in
  let all_zero a = Array.for_all (fun p -> p = 0.) a in
  let binary =
    if all_zero byz_probs && n <= Quorum.Subset.max_enumeration then Some false
    else if all_zero crash_probs && n <= Quorum.Subset.max_enumeration then
      Some true
    else None
  in
  let total, base_engine, iter_range =
    match binary with
    | Some byzantine ->
        ( Quorum.Subset.full n + 1,
          "enumeration-binary",
          fun ~lo ~hi f -> Config.iter_binary_range ~n ~byzantine ~lo ~hi f )
    | None ->
        ( Config.ternary_cardinality ~n,
          "enumeration-ternary",
          fun ~lo ~hi f -> Config.iter_ternary_range ~n ~lo ~hi f )
  in
  let workers =
    Parallel.Pool.effective ?domains
      ~tasks:(min Parallel.Chunked.default_chunks total) ()
  in
  Obs.Metrics.set m_workers workers;
  let p_safe, p_live, p_both =
    Parallel.Chunked.sum3 ?domains ~total (fun ~chunk:_ ~lo ~hi ->
        eval_range protocol ~crash_probs ~byz_probs iter_range ~lo ~hi)
  in
  no_ci protocol.name
    ~engine:(engine_tag ~workers base_engine)
    ~p_safe ~p_live ~p_safe_live:p_both

let mc_result (protocol : Protocol.t) ~engine ~trials (safe_hits, live_hits, both_hits)
    =
  let proportion hits = float_of_int hits /. float_of_int trials in
  {
    protocol = protocol.name;
    p_safe = proportion safe_hits;
    p_live = proportion live_hits;
    p_safe_live = proportion both_hits;
    engine;
    ci_safe = Some (Prob.Montecarlo.wilson_interval ~successes:safe_hits ~trials);
    ci_live = Some (Prob.Montecarlo.wilson_interval ~successes:live_hits ~trials);
    ci_safe_live = Some (Prob.Montecarlo.wilson_interval ~successes:both_hits ~trials);
  }

(* Monte-Carlo trials run in chunks, each on its own stream derived
   from (seed, chunk index): the estimate depends only on the seed and
   trial count, never on how many domains executed the chunks. *)
let mc_chunked ?domains ~trials ~seed sample_outcome =
  Parallel.Chunked.count3 ?domains ~total:trials (fun ~chunk ~lo ~hi ->
      let span = Obs.Span.start m_chunk_seconds in
      let rng = Prob.Rng.of_pair seed chunk in
      let safe_hits = ref 0 and live_hits = ref 0 and both_hits = ref 0 in
      for _ = lo to hi - 1 do
        let safe, live = sample_outcome rng in
        if safe then incr safe_hits;
        if live then incr live_hits;
        if safe && live then incr both_hits
      done;
      Obs.Metrics.incr m_chunks;
      Obs.Metrics.add m_mc_trials (hi - lo);
      Obs.Metrics.add m_mc_safe !safe_hits;
      Obs.Metrics.add m_mc_live !live_hits;
      Obs.Metrics.add m_mc_both !both_hits;
      Obs.Span.stop span;
      (!safe_hits, !live_hits, !both_hits))

let run_monte_carlo ?domains (protocol : Protocol.t) ~crash_probs ~byz_probs
    ~trials ~seed =
  Obs.Metrics.set m_workers
    (Parallel.Pool.effective ?domains
       ~tasks:(min Parallel.Chunked.default_chunks trials) ());
  let hits =
    mc_chunked ?domains ~trials ~seed (fun rng ->
        let config = Config.sample ~crash_probs ~byz_probs rng in
        (protocol.safe.full config, protocol.live.full config))
  in
  let workers =
    Parallel.Pool.effective ?domains
      ~tasks:(min Parallel.Chunked.default_chunks trials) ()
  in
  let engine = engine_tag ~workers (Printf.sprintf "monte-carlo(%d)" trials) in
  mc_result protocol ~engine ~trials hits

(* The one strategy dispatch, shared by [run] (which derives the
   probability vectors from a fleet) and [run_horizon] (which re-enters
   it per round on marginals it controls) — so a horizon point computed
   "the exact way" is bit-identical to a standalone [run] at that
   mission time. *)
let run_on_probs ?(strategy = Auto) ?(seed = 42) ?domains
    (protocol : Protocol.t) ~crash_probs ~byz_probs =
  Obs.Metrics.incr m_runs;
  let n = Array.length crash_probs in
  let has_counts =
    protocol.safe.by_count <> None && protocol.live.by_count <> None
  in
  match strategy with
  | Count_dp -> run_count_dp protocol ~crash_probs ~byz_probs
  | Enumeration -> run_enumeration ?domains protocol ~crash_probs ~byz_probs
  | Monte_carlo trials ->
      run_monte_carlo ?domains protocol ~crash_probs ~byz_probs ~trials ~seed
  | Auto ->
      if has_counts then run_count_dp protocol ~crash_probs ~byz_probs
      else if n <= 13 || (n <= Quorum.Subset.max_enumeration
                          && (Array.for_all (fun p -> p = 0.) byz_probs
                             || Array.for_all (fun p -> p = 0.) crash_probs))
      then run_enumeration ?domains protocol ~crash_probs ~byz_probs
      else
        run_monte_carlo ?domains protocol ~crash_probs ~byz_probs ~trials:200_000
          ~seed

let run ?at ?strategy ?seed ?domains (protocol : Protocol.t) fleet =
  let n = Faultmodel.Fleet.size fleet in
  if n <> protocol.n then
    invalid_arg
      (Printf.sprintf "Analysis.run: fleet size %d but protocol expects %d" n
         protocol.n);
  let crash_probs = Faultmodel.Fleet.crash_probs ?at fleet in
  let byz_probs = Faultmodel.Fleet.byz_probs ?at fleet in
  run_on_probs ?strategy ?seed ?domains protocol ~crash_probs ~byz_probs

(* --- Horizon trajectories ---------------------------------------------- *)

type horizon_point = { at : float; result : result }

let horizon_times ~horizon ~rounds =
  if rounds < 1 then invalid_arg "Analysis.horizon_times: rounds must be >= 1";
  if not (Float.is_finite horizon) || horizon <= 0. then
    invalid_arg "Analysis.horizon_times: horizon must be positive and finite";
  List.init rounds (fun k ->
      horizon *. float_of_int (k + 1) /. float_of_int rounds)

(* A crash-count distribution (byz fixed at 0), summed as the count DP
   sums its cells. *)
let result_of_pmf protocol ~engine dist =
  count_result protocol ~engine (fun add ->
      Array.iteri (fun c p -> add ~byz:0 ~crashed:c p) dist)

let run_horizon ?(strategy = Auto) ?seed ?domains ~times (protocol : Protocol.t)
    fleet =
  let n = Faultmodel.Fleet.size fleet in
  if n <> protocol.n then
    invalid_arg
      (Printf.sprintf "Analysis.run_horizon: fleet size %d but protocol expects %d"
         n protocol.n);
  let has_counts =
    protocol.safe.by_count <> None && protocol.live.by_count <> None
  in
  let all_zero a = Array.for_all (fun p -> p = 0.) a in
  (* Incremental fast path: under Auto with count predicates and no
     Byzantine mass, later rounds reuse the previous round's
     Poisson-binomial distribution via O(n)-per-changed-node
     divide-out/multiply-in (PR 8) instead of the O(n^2) scratch DP.
     Round one is always computed by the exact shared dispatch, so a
     [Static]-only trajectory is bit-identical to [Analysis.run] at
     every round (the marginals never change and every round reuses the
     round-one result verbatim). *)
  let engine = ref None in
  let prev : (float array * float array * result) option ref = ref None in
  let exact ~crash_probs ~byz_probs =
    engine := None;
    run_on_probs ~strategy ?seed ?domains protocol ~crash_probs ~byz_probs
  in
  List.map
    (fun at ->
      let crash_probs = Faultmodel.Fleet.crash_probs ~at fleet in
      let byz_probs = Faultmodel.Fleet.byz_probs ~at fleet in
      let result =
        match !prev with
        | Some (pc, pb, r) when pc = crash_probs && pb = byz_probs -> r
        | stale ->
            let fast_ok =
              strategy = Auto && has_counts && all_zero byz_probs
              && stale <> None
            in
            if not fast_ok then exact ~crash_probs ~byz_probs
            else begin
              (match !engine with
              | Some eng ->
                  let updates = ref [] in
                  Array.iteri
                    (fun i p ->
                      if Prob.Incremental.prob eng i <> p then
                        updates := (i, p) :: !updates)
                    crash_probs;
                  Prob.Incremental.update_batch eng (List.rev !updates)
              | None -> engine := Some (Prob.Incremental.create crash_probs));
              let eng = Option.get !engine in
              result_of_pmf protocol ~engine:"incremental-pb"
                (Prob.Incremental.pmf eng)
            end
      in
      prev := Some (crash_probs, byz_probs, result);
      { at; result })
    times

let run_correlated ?(trials = 200_000) model (protocol : Protocol.t) fleet =
  let n = Faultmodel.Fleet.size fleet in
  if n <> protocol.n then
    invalid_arg "Analysis.run_correlated: fleet size mismatch";
  Obs.Metrics.incr m_runs;
  Obs.Metrics.set m_workers
    (Parallel.Pool.effective
       ~tasks:(min Parallel.Chunked.default_chunks trials) ());
  let hits =
    mc_chunked ~trials ~seed:42 (fun rng ->
        let kinds = Faultmodel.Correlation.sample_kinds model fleet rng in
        let config =
          Array.map
            (function
              | Faultmodel.Correlation.Ok -> Config.Correct
              | Faultmodel.Correlation.Crash -> Config.Crashed
              | Faultmodel.Correlation.Byz -> Config.Byzantine)
            kinds
        in
        (protocol.safe.full config, protocol.live.full config))
  in
  let workers =
    Parallel.Pool.effective
      ~tasks:(min Parallel.Chunked.default_chunks trials) ()
  in
  let engine =
    engine_tag ~workers (Printf.sprintf "monte-carlo-correlated(%d)" trials)
  in
  mc_result protocol ~engine ~trials hits

let pp_result fmt r =
  Format.fprintf fmt "@[<v>%s [%s]:@ safe %a, live %a, safe&live %a@]" r.protocol
    r.engine Prob.Nines.pp_percent r.p_safe Prob.Nines.pp_percent r.p_live
    Prob.Nines.pp_percent r.p_safe_live
