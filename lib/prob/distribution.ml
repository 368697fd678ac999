let binomial_pmf ~n ~p k =
  if k < 0 || k > n then 0.
  else if p <= 0. then (if k = 0 then 1. else 0.)
  else if p >= 1. then (if k = n then 1. else 0.)
  else
    exp
      (Math_utils.log_choose n k
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. Float.log1p (-.p)))

let binomial_cdf ~n ~p k =
  if k < 0 then 0.
  else if k >= n then 1.
  else begin
    (* Sum the side with fewer terms, then complement if needed. *)
    if k <= n / 2 then begin
      let acc = ref 0. in
      for i = 0 to k do
        acc := !acc +. binomial_pmf ~n ~p i
      done;
      Math_utils.clamp_prob !acc
    end
    else begin
      let acc = ref 0. in
      for i = k + 1 to n do
        acc := !acc +. binomial_pmf ~n ~p i
      done;
      Math_utils.clamp_prob (1. -. !acc)
    end
  end

let binomial_tail_ge ~n ~p k =
  if k <= 0 then 1. else if k > n then 0. else begin
    if n - k <= n / 2 then begin
      let acc = ref 0. in
      for i = k to n do
        acc := !acc +. binomial_pmf ~n ~p i
      done;
      Math_utils.clamp_prob !acc
    end
    else Math_utils.clamp_prob (1. -. binomial_cdf ~n ~p (k - 1))
  end

let weibull_survival ~shape ~scale t =
  if t <= 0. then 1. else exp (-.((t /. scale) ** shape))

let weibull_hazard ~shape ~scale t =
  if t <= 0. then (if shape < 1. then infinity else if shape = 1. then 1. /. scale else 0.)
  else shape /. scale *. ((t /. scale) ** (shape -. 1.))

let weibull_sample rng ~shape ~scale =
  let u = Rng.float rng in
  scale *. ((-.Float.log1p (-.u)) ** (1. /. shape))

(* [acc +. x +. ... +. x] with [n] terms [x], added one at a time: the
   bits a sum over [n] units of the same value [x] would give. *)
let add_repeated acc x n =
  let acc = ref acc in
  for _ = 1 to n do
    acc := !acc +. x
  done;
  !acc

(* Right-censored profile-likelihood MLE for Weibull shape k. With d
   observed failures t_i and censored survival times c_j, the profile
   score (all sums over failures AND censored unless noted) is
     g(k) = d/k + sum_{failures} ln t_i - d * sum(s^k ln s) / sum(s^k)
   with root found by bisection (g decreases in k), after which
     scale^k = sum(s^k) / d.
   The uncensored case reduces to the textbook equation.
   Censored units come as (time, count) groups. A group's power and
   log are taken once per evaluation and its terms added [count] times
   in the order of one term per unit, so the fit is the same to the
   bit as over the groups expanded unit by unit. *)
let weibull_fit_censored ~failures ~censored =
  let d = Array.length failures in
  if d < 2 then invalid_arg "Distribution.weibull_fit: need >= 2 samples";
  Array.iter
    (fun x -> if x <= 0. then invalid_arg "Distribution.weibull_fit: nonpositive sample")
    failures;
  Array.iter
    (fun (c, n) ->
      if n < 0 then invalid_arg "Distribution.weibull_fit: negative censor count";
      if n > 0 && c <= 0. then
        invalid_arg "Distribution.weibull_fit: nonpositive censor time")
    censored;
  let df = float_of_int d in
  let log_failures = Array.map log failures in
  let sum_log_failures = Math_utils.kahan_sum log_failures in
  let g k =
    let sxk = ref 0. and sxkl = ref 0. in
    for i = 0 to d - 1 do
      let xk = failures.(i) ** k in
      sxk := !sxk +. xk;
      sxkl := !sxkl +. (xk *. log_failures.(i))
    done;
    for j = 0 to Array.length censored - 1 do
      let c, n = censored.(j) in
      let ck = c ** k in
      sxk := add_repeated !sxk ck n;
      sxkl := add_repeated !sxkl (ck *. log c) n
    done;
    (df /. k) +. sum_log_failures -. (df *. !sxkl /. !sxk)
  in
  (* g is decreasing in k, positive for k -> 0+. *)
  let hi = ref 1. in
  while g !hi > 0. && !hi < 1e4 do
    hi := !hi *. 2.
  done;
  (* 80 bisection steps, but a step that moves neither end leaves k
     where it is, and so would every step after it. *)
  let rec bisect lo hi step =
    let k = (lo +. hi) /. 2. in
    if step = 80 then k
    else if g k > 0. then (if k = lo then k else bisect k hi (step + 1))
    else if k = hi then k
    else bisect lo k (step + 1)
  in
  let shape = bisect 1e-3 !hi 0 in
  let sxk =
    Array.fold_left (fun acc x -> acc +. (x ** shape)) 0. failures
    +. Array.fold_left (fun acc (c, n) -> add_repeated acc (c ** shape) n) 0. censored
  in
  let scale = (sxk /. df) ** (1. /. shape) in
  (shape, scale)
