let pmf probs =
  let n = Array.length probs in
  let dist = Array.make (n + 1) 0. in
  dist.(0) <- 1.;
  for i = 0 to n - 1 do
    let p = Math_utils.clamp_prob (Array.unsafe_get probs i) in
    let q = 1. -. p in
    (* Convolve with (1-p, p); walk downward so each trial is used once.
       Unsafe accesses: the loop runs over [1, i+1] with i < n and the
       array has length n+1, and this O(n^2) kernel is the fleet-scale
       recompute baseline, where bounds checks are a measurable tax. *)
    for k = i + 1 downto 1 do
      Array.unsafe_set dist k
        ((Array.unsafe_get dist k *. q) +. (Array.unsafe_get dist (k - 1) *. p))
    done;
    dist.(0) <- dist.(0) *. q
  done;
  dist

let cdf_le probs k =
  let dist = pmf probs in
  let n = Array.length probs in
  if k < 0 then 0.
  else if k >= n then 1.
  else begin
    let acc = ref 0. in
    for i = 0 to k do
      acc := !acc +. dist.(i)
    done;
    Math_utils.clamp_prob !acc
  end

let sum_over probs pred =
  let dist = pmf probs in
  let acc = ref 0. in
  Array.iteri (fun k p -> if pred k then acc := !acc +. p) dist;
  Math_utils.clamp_prob !acc
