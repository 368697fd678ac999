type config = {
  seed : int;
  nodes : int;
  drift_every : int;
  dynamic : bool;
}

let default_config ?(dynamic = false) ~seed ~nodes () =
  { seed; nodes; drift_every = 5; dynamic }

let devices_per_node = 256 (* device cohort observed per node report *)
let window = 8766. (* telemetry window per report, hours *)
let drift_factor = 4.
let base_afr_min = 0.01 (* ground-truth AFR range, log-uniform *)
let base_afr_max = 0.08
let tick_hours = 336. (* simulated hours per tick (dynamic mode) *)

type event = {
  node : int;
  observation : Faultmodel.Telemetry.observation;
}

(* Dynamic mode: each node's degradation is a two-state on/off Markov
   process advanced lazily in simulated time. Up = nominal AFR; Down =
   AFR multiplied by [drift_factor]. Dwells are exponential, drawn from
   the node's private process stream, so advancing node [i] never
   perturbs node [j] and the whole fleet replays bit-identically. *)
type markov_state = {
  m_rng : Prob.Rng.t;
  mutable degraded : bool;
  mutable flip_at : float;  (* simulated hour of the next state flip *)
}

type t = {
  cfg : config;
  truth : float array; (* current ground-truth base AFR per node *)
  states : markov_state array; (* [||] unless dynamic *)
  mutable ticks : int;
}

(* Stable stream ids, disjoint by residue class mod 3: the initial
   truth draw, the drift schedule, and each (tick, node) telemetry
   report get independent derived streams, so adding ticks or nodes
   never perturbs earlier draws. The dynamic degradation processes
   reuse residue 0 at offsets [nodes + i], which the truth draws
   (offsets [i < nodes]) never reach. *)
let truth_stream seed i = Prob.Rng.of_pair seed (3 * i)
let drift_stream seed tick = Prob.Rng.of_pair seed ((3 * tick) + 1)
let process_stream cfg i = Prob.Rng.of_pair cfg.seed (3 * (cfg.nodes + i))

let report_stream cfg ~tick ~node =
  Prob.Rng.of_pair cfg.seed ((3 * ((tick * cfg.nodes) + node)) + 2)

(* Mean one-week-scale degradations: a node with base AFR [a] degrades
   at rate [a /. degradation_scale] per hour and recovers at
   [1 /. degradation_scale], so over a default 26-tick soak a typical
   fleet sees a handful of multi-tick degradation episodes — the same
   order of churn as the static step-drift schedule it replaces. *)
let degradation_scale = 1000.
let recover_rate = 1. /. degradation_scale
let degrade_rate afr = afr /. degradation_scale

let create cfg =
  if cfg.nodes <= 0 then invalid_arg "Stream.create: nodes must be positive";
  let log_min = log base_afr_min and log_max = log base_afr_max in
  let truth =
    Array.init cfg.nodes (fun i ->
        let u = Prob.Rng.float (truth_stream cfg.seed i) in
        exp (log_min +. (u *. (log_max -. log_min))))
  in
  let states =
    if not cfg.dynamic then [||]
    else
      Array.init cfg.nodes (fun i ->
          let m_rng = process_stream cfg i in
          {
            m_rng;
            degraded = false;
            flip_at = Prob.Rng.exponential m_rng (degrade_rate truth.(i));
          })
  in
  { cfg; truth; states; ticks = 0 }

let ground_truth_afr t i = t.truth.(i)
let now t = float_of_int t.ticks *. tick_hours

let max_truth_afr = 0.6

let advance t node =
  let st = t.states.(node) in
  let now = now t in
  while st.flip_at <= now do
    st.degraded <- not st.degraded;
    let rate =
      if st.degraded then recover_rate else degrade_rate t.truth.(node)
    in
    st.flip_at <- st.flip_at +. Prob.Rng.exponential st.m_rng rate
  done

let effective_afr t node =
  let base = t.truth.(node) in
  if not t.cfg.dynamic then base
  else begin
    advance t node;
    if t.states.(node).degraded then
      Float.min max_truth_afr (base *. drift_factor)
    else base
  end

let ground_truth_degraded t i =
  t.cfg.dynamic
  && begin
       advance t i;
       t.states.(i).degraded
     end

let ground_truth_process t i =
  if t.cfg.dynamic then
    Faultmodel.Failure_process.Markov
      { fail_rate = degrade_rate t.truth.(i); recover_rate }
  else
    Faultmodel.Failure_process.Curve
      (Faultmodel.Fault_curve.of_afr t.truth.(i))

let tick t =
  let cfg = t.cfg in
  t.ticks <- t.ticks + 1;
  if
    (not cfg.dynamic)
    && cfg.drift_every > 0
    && t.ticks mod cfg.drift_every = 0
  then begin
    let rng = drift_stream cfg.seed t.ticks in
    let victim = Prob.Rng.int rng cfg.nodes in
    t.truth.(victim) <- Float.min max_truth_afr (t.truth.(victim) *. drift_factor)
  end;
  let batch = max 1 (cfg.nodes / 4) in
  let start = (t.ticks - 1) * batch mod cfg.nodes in
  List.init batch (fun k -> (start + k) mod cfg.nodes)
  |> List.sort_uniq compare
  |> List.map (fun node ->
         let rng = report_stream cfg ~tick:t.ticks ~node in
         let curve = Faultmodel.Fault_curve.of_afr (effective_afr t node) in
         let observation =
           Faultmodel.Telemetry.observe rng curve ~devices:devices_per_node
             ~window
         in
         { node; observation })

let replace t i ~afr =
  if afr <= 0. then invalid_arg "Stream.replace: afr must be positive";
  t.truth.(i) <- afr;
  if t.cfg.dynamic then begin
    let st = t.states.(i) in
    st.degraded <- false;
    st.flip_at <- now t +. Prob.Rng.exponential st.m_rng (degrade_rate afr)
  end
