type observation = {
  devices : int;
  device_hours : float;
  failures : int;
  lifetimes : float array;
  window : float;
}

let hours_per_year = 8766.

let sample_lifetime rng curve =
  match curve with
  | Fault_curve.Exponential { rate } -> Prob.Rng.exponential rng rate
  | Fault_curve.Weibull { shape; scale } -> Prob.Distribution.weibull_sample rng ~shape ~scale
  | Fault_curve.Constant p ->
      (* Interpret a constant mission probability as its memoryless
         equivalent over one year. *)
      if p <= 0. then infinity
      else if p >= 1. then 0.
      else Prob.Rng.exponential rng (-.Float.log1p (-.p) /. hours_per_year)
  | (Fault_curve.Bathtub _ | Fault_curve.Empirical _ | Fault_curve.Scaled _
    | Fault_curve.Shifted _ | Fault_curve.Markov_onoff _) as c ->
      (* Numeric inversion of the CDF by bisection over an expanding
         bracket. *)
      let u = Prob.Rng.float rng in
      if Fault_curve.eval c infinity < u then infinity
      else begin
        let hi = ref 1. in
        while Fault_curve.eval c !hi < u && !hi < 1e12 do
          hi := !hi *. 2.
        done;
        let lo = ref 0. in
        for _ = 1 to 60 do
          let mid = (!lo +. !hi) /. 2. in
          if Fault_curve.eval c mid < u then lo := mid else hi := mid
        done;
        (!lo +. !hi) /. 2.
      end

let observe rng curve ~devices ~window =
  if devices <= 0 then invalid_arg "Telemetry.observe: devices must be positive";
  if window <= 0. then invalid_arg "Telemetry.observe: window must be positive";
  let lifetimes = ref [] in
  let device_hours = ref 0. and failures = ref 0 in
  for _ = 1 to devices do
    let life = sample_lifetime rng curve in
    if life < window then begin
      incr failures;
      lifetimes := life :: !lifetimes;
      device_hours := !device_hours +. life
    end
    else device_hours := !device_hours +. window
  done;
  {
    devices;
    device_hours = !device_hours;
    failures = !failures;
    lifetimes = Array.of_list (List.rev !lifetimes);
    window;
  }

let afr_confidence obs =
  if obs.device_hours <= 0. then (0., 1.)
  else begin
    (* Poisson count: lambda_hat +- 1.96 sqrt(failures)/device_hours. *)
    let z = 1.959963984540054 in
    let f = float_of_int obs.failures in
    let rate = f /. obs.device_hours in
    let half = z *. sqrt (Float.max f 1.) /. obs.device_hours in
    let to_afr r =
      Prob.Math_utils.clamp_prob (-.Float.expm1 (-.Float.max 0. r *. hours_per_year))
    in
    (to_afr (rate -. half), to_afr (rate +. half))
  end

let fit_exponential obs =
  if obs.device_hours <= 0. then invalid_arg "Telemetry.fit_exponential: no exposure";
  let rate = float_of_int obs.failures /. obs.device_hours in
  Fault_curve.Exponential { rate = Float.max rate 1e-12 }

let fit_weibull obs =
  if obs.failures < 2 then invalid_arg "Telemetry.fit_weibull: need >= 2 failures";
  let survivors = max 0 (obs.devices - obs.failures) in
  let shape, scale =
    Prob.Distribution.weibull_fit_censored ~failures:obs.lifetimes
      ~censored:[| (obs.window, survivors) |]
  in
  Fault_curve.Weibull { shape; scale }

let log_likelihood curve lifetimes =
  (* Log-density via numeric hazard: f(t) = h(t) * S(t). *)
  Array.fold_left
    (fun acc t ->
      let h = Fault_curve.hazard_rate curve t in
      let s = 1. -. Fault_curve.eval curve t in
      if h <= 0. || s <= 0. then acc -. 1e9 else acc +. log h +. log s)
    0. lifetimes

let fit_auto obs =
  if obs.failures < 5 then fit_exponential obs
  else begin
    let expo = fit_exponential obs in
    match fit_weibull obs with
    | weib ->
        if log_likelihood weib obs.lifetimes
           > log_likelihood expo obs.lifetimes +. 2.
           (* require a clearly better fit before adding a parameter *)
        then weib
        else expo
    | exception Invalid_argument _ -> expo
  end
