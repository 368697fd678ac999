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
