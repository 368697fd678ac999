type t =
  | Constant of float
  | Exponential of { rate : float }
  | Weibull of { shape : float; scale : float }
  | Bathtub of { infant : t; useful : t; wearout : t; t1 : float; t2 : float }
  | Empirical of (float * float) array
  | Scaled of { factor : float; curve : t }
  | Shifted of { offset : float; curve : t }
  | Markov_onoff of { fail_rate : float; recover_rate : float }

let hours_per_year = 8766.

let rec eval curve t =
  let p =
    match curve with
    | Constant p -> p
    | Exponential { rate } -> -.Float.expm1 (-.rate *. Float.max 0. t)
    | Weibull { shape; scale } ->
        1. -. Prob.Distribution.weibull_survival ~shape ~scale (Float.max 0. t)
    | Bathtub { infant; useful; wearout; t1; t2 } ->
        if t < t1 then eval infant t
        else if t < t2 then eval useful t
        else eval wearout t
    | Empirical points -> eval_empirical points t
    | Scaled { factor; curve } -> factor *. eval curve t
    | Shifted { offset; curve } -> if t < offset then 0. else eval curve (t -. offset)
    | Markov_onoff { fail_rate; recover_rate } ->
        (* Two-state CTMC started Up: exact transient occupancy of Down,
           p(t) = pi * (1 - exp (-(lambda+mu) t)) with pi = lambda/(lambda+mu). *)
        let total = fail_rate +. recover_rate in
        if total <= 0. then 0.
        else
          let pi = fail_rate /. total in
          -.(pi *. Float.expm1 (-.total *. Float.max 0. t))
  in
  Prob.Math_utils.clamp_prob p

and eval_empirical points t =
  let n = Array.length points in
  if n = 0 then 0.
  else begin
    let t0, p0 = points.(0) and tn, pn = points.(n - 1) in
    if t <= t0 then p0
    else if t >= tn then pn
    else begin
      (* Binary search for the segment containing t. *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if fst points.(mid) <= t then lo := mid else hi := mid
      done;
      let ta, pa = points.(!lo) and tb, pb = points.(!hi) in
      if tb = ta then pa else pa +. ((pb -. pa) *. (t -. ta) /. (tb -. ta))
    end
  end

let constant p = Constant (Prob.Math_utils.clamp_prob p)

let of_afr afr =
  let afr = Prob.Math_utils.clamp_prob afr in
  if afr >= 1. then Exponential { rate = 1e3 }
  else Exponential { rate = -.Float.log1p (-.afr) /. hours_per_year }


let rec hazard_rate curve t =
  match curve with
  | Exponential { rate } -> rate
  | Weibull { shape; scale } -> Prob.Distribution.weibull_hazard ~shape ~scale t
  | Shifted { offset; curve } ->
      if t < offset then 0. else hazard_rate curve (t -. offset)
  | Constant _ | Bathtub _ | Empirical _ | Scaled _ | Markov_onoff _ ->
      (* h(t) = f(t) / S(t), with f estimated by a central difference. *)
      let dt = Float.max 1e-6 (Float.abs t *. 1e-6) in
      let p_lo = eval curve (Float.max 0. (t -. dt)) in
      let p_hi = eval curve (t +. dt) in
      let survival = 1. -. eval curve t in
      if survival <= 0. then infinity
      else Float.max 0. ((p_hi -. p_lo) /. (2. *. dt)) /. survival

let window_probability curve ~start ~duration =
  let p_start = eval curve start in
  let p_end = eval curve (start +. duration) in
  let survival = 1. -. p_start in
  if survival <= 0. then 1.
  else Prob.Math_utils.clamp_prob ((p_end -. p_start) /. survival)
