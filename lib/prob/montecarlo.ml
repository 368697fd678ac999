type estimate = {
  mean : float;
  trials : int;
  successes : int;
  ci_low : float;
  ci_high : float;
}

let z95 = 1.959963984540054

let wilson_interval ~successes ~trials =
  if trials = 0 then (0., 1.)
  else begin
    let n = float_of_int trials in
    let phat = float_of_int successes /. n in
    let z2 = z95 *. z95 in
    let denom = 1. +. (z2 /. n) in
    let center = (phat +. (z2 /. (2. *. n))) /. denom in
    let margin =
      z95 /. denom *. sqrt ((phat *. (1. -. phat) /. n) +. (z2 /. (4. *. n *. n)))
    in
    (Math_utils.clamp_prob (center -. margin), Math_utils.clamp_prob (center +. margin))
  end

let estimate_bool ?(trials = 100_000) rng f =
  let successes = ref 0 in
  for _ = 1 to trials do
    if f rng then incr successes
  done;
  let successes = !successes in
  let ci_low, ci_high = wilson_interval ~successes ~trials in
  { mean = float_of_int successes /. float_of_int trials; trials; successes; ci_low; ci_high }

let within e p = p >= e.ci_low && p <= e.ci_high
