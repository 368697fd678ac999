(* The right-censored Weibull fit as it stood before censored units
   were grouped by censor time: one array element per censored unit,
   a power and a log per element on every score evaluation, and all
   80 bisection steps. Kept only as the reference the bit-identity
   property in test_prob.ml compares [Prob.Distribution.
   weibull_fit_censored] against. Never link it into lib/. *)

open Prob

(* Right-censored profile-likelihood MLE for Weibull shape k. With d
   observed failures t_i and censored survival times c_j, the profile
   score (all sums over failures AND censored unless noted) is
     g(k) = d/k + sum_{failures} ln t_i - d * sum(s^k ln s) / sum(s^k)
   with root found by bisection (g decreases in k), after which
     scale^k = sum(s^k) / d.
   The uncensored case reduces to the textbook equation. *)
let weibull_fit_censored ~failures ~censored =
  let d = Array.length failures in
  if d < 2 then invalid_arg "Distribution.weibull_fit: need >= 2 samples";
  Array.iter
    (fun x -> if x <= 0. then invalid_arg "Distribution.weibull_fit: nonpositive sample")
    failures;
  Array.iter
    (fun x ->
      if x <= 0. then invalid_arg "Distribution.weibull_fit: nonpositive censor time")
    censored;
  let df = float_of_int d in
  let sum_log_failures = Math_utils.kahan_sum (Array.map log failures) in
  let g k =
    let sxk = ref 0. and sxkl = ref 0. in
    let add x =
      let xk = x ** k in
      sxk := !sxk +. xk;
      sxkl := !sxkl +. (xk *. log x)
    in
    Array.iter add failures;
    Array.iter add censored;
    (df /. k) +. sum_log_failures -. (df *. !sxkl /. !sxk)
  in
  (* g is decreasing in k, positive for k -> 0+. *)
  let lo = ref 1e-3 and hi = ref 1. in
  while g !hi > 0. && !hi < 1e4 do
    hi := !hi *. 2.
  done;
  let k = ref ((!lo +. !hi) /. 2.) in
  for _ = 1 to 80 do
    if g !k > 0. then lo := !k else hi := !k;
    k := (!lo +. !hi) /. 2.
  done;
  let shape = !k in
  let sxk =
    Array.fold_left (fun acc x -> acc +. (x ** shape)) 0. failures
    +. Array.fold_left (fun acc x -> acc +. (x ** shape)) 0. censored
  in
  let scale = (sxk /. df) ** (1. /. shape) in
  (shape, scale)
