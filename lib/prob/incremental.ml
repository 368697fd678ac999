type t = {
  probs : float array;
  dist : float array;
  rest : float array; (* scratch buffer for divide-out, length n *)
  mutable acc_drift : float;
  drift_bound : float;
  mutable refreshes : int;
  mutable updates : int;
}

let default_drift_bound = 1e-9

let full_dp probs dist =
  let n = Array.length probs in
  Array.fill dist 0 (n + 1) 0.;
  dist.(0) <- 1.;
  (* Same downward-walking convolution as {!Poisson_binomial.pmf}, but
     Neumaier-compensated per cell so create/refresh is itself a tight
     baseline for the incremental path to be compared against. *)
  let comp = Array.make (n + 1) 0. in
  for i = 0 to n - 1 do
    let p = probs.(i) in
    let q = 1. -. p in
    (* Unsafe accesses: k ranges over [1, i+1], i < n, arrays have
       length n+1 — and this loop is quadratic at fleet scale. *)
    for k = i + 1 downto 1 do
      let a = q *. (Array.unsafe_get dist k +. Array.unsafe_get comp k)
      and b =
        p *. (Array.unsafe_get dist (k - 1) +. Array.unsafe_get comp (k - 1))
      in
      let s = a +. b in
      let c = if Float.abs a >= Float.abs b then a -. s +. b else b -. s +. a in
      Array.unsafe_set dist k s;
      Array.unsafe_set comp k c
    done;
    dist.(0) <- q *. (dist.(0) +. comp.(0));
    comp.(0) <- 0.
  done;
  for k = 0 to n do
    dist.(k) <- dist.(k) +. comp.(k)
  done

let create ?(drift_bound = default_drift_bound) probs =
  if drift_bound < 0. then invalid_arg "Incremental.create: negative drift bound";
  let probs = Array.map Math_utils.clamp_prob probs in
  let n = Array.length probs in
  let dist = Array.make (n + 1) 0. in
  full_dp probs dist;
  {
    probs;
    dist;
    rest = Array.make (max n 1) 0.;
    acc_drift = 0.;
    drift_bound;
    refreshes = 0;
    updates = 0;
  }

let prob t i = t.probs.(i)
let probs t = Array.copy t.probs
let refresh_count t = t.refreshes
let update_count t = t.updates
let drift t = t.acc_drift
let drift_bound t = t.drift_bound

let refresh t =
  full_dp t.probs t.dist;
  t.acc_drift <- 0.;
  t.refreshes <- t.refreshes + 1

(* Worst-case factor by which one divide-out amplifies an absolute
   coefficient error already present in [dist]. Forward recurrence
   (p <= 0.5): e_k = (d_k + p e_{k-1}) / (1-p), a geometric series
   with ratio r = p/(1-p), so e_max <= d * min(2 size, 1/(1-2p)).
   Backward is symmetric in 1-p. Exact 0/1 factors are pure shifts. *)
let amplification ~size p =
  if p <= 0. || p >= 1. then 1.
  else begin
    let denom = Float.abs (1. -. (2. *. p)) in
    let cap = 2. *. float_of_int size in
    if denom *. cap <= 1. then cap else Float.min cap (1. /. denom)
  end

(* Divide the factor ((1-p) + p x) out of [dist] (degree n), leaving
   the degree-(n-1) quotient in [rest]. Two synthetic-division
   recurrences exist; each propagates earlier rounding error scaled by
   r = p/(1-p) (forward) or (1-p)/p (backward), so picking the
   direction by p <= 0.5 keeps r <= 1 and the recurrence
   backward-stable. *)
let divide_out ~dist ~rest ~size p =
  if p <= 0. then Array.blit dist 0 rest 0 size
  else if p >= 1. then Array.blit dist 1 rest 0 size
  else if p <= 0.5 then begin
    let q = 1. -. p in
    rest.(0) <- dist.(0) /. q;
    for k = 1 to size - 1 do
      Array.unsafe_set rest k
        ((Array.unsafe_get dist k -. (p *. Array.unsafe_get rest (k - 1))) /. q)
    done
  end
  else begin
    let q = 1. -. p in
    rest.(size - 1) <- dist.(size) /. p;
    for k = size - 2 downto 0 do
      Array.unsafe_set rest k
        ((Array.unsafe_get dist (k + 1) -. (q *. Array.unsafe_get rest (k + 1)))
        /. p)
    done
  end

(* Multiply the factor ((1-p) + p x) back in: dist_k = q*rest_k +
   p*rest_{k-1}. Each cell is a two-term sum, combined with a Neumaier
   step so the multiply-in contributes O(eps) per cell, not a growing
   series. Tiny negative residue from the divide-out is clamped — the
   true coefficient is a probability. *)
let multiply_in ~dist ~rest ~size p =
  let q = 1. -. p in
  dist.(0) <- Float.max 0. (q *. rest.(0));
  for k = 1 to size - 1 do
    let a = q *. Array.unsafe_get rest k
    and b = p *. Array.unsafe_get rest (k - 1) in
    let s = a +. b in
    let c = if Float.abs a >= Float.abs b then a -. s +. b else b -. s +. a in
    Array.unsafe_set dist k (Float.max 0. (s +. c))
  done;
  dist.(size) <- Float.max 0. (p *. rest.(size - 1))

let update t i p_new =
  let size = Array.length t.probs in
  if i < 0 || i >= size then invalid_arg "Incremental.update: index out of range";
  let p_new = Math_utils.clamp_prob p_new in
  let p_old = t.probs.(i) in
  if p_new <> p_old then begin
    divide_out ~dist:t.dist ~rest:t.rest ~size p_old;
    t.probs.(i) <- p_new;
    multiply_in ~dist:t.dist ~rest:t.rest ~size p_new;
    (* The divide-out scales the error already carried by [dist] by up
       to [amp] AND introduces fresh rounding of the same conditioning;
       the compensated multiply-in adds O(eps). Hence the drift account
       is multiplicative, not additive — a run of ill-conditioned
       (p near 0.5) updates compounds geometrically and trips the
       refresh within a few steps, exactly as it should. *)
    let amp = amplification ~size p_old in
    t.acc_drift <-
      (t.acc_drift *. amp) +. (4. *. epsilon_float *. amp) +. epsilon_float;
    t.updates <- t.updates + 1;
    if t.acc_drift > t.drift_bound then refresh t
  end

let pmf t = Array.copy t.dist

let cdf_le t k =
  if k < 0 then 0.
  else begin
    let hi = min k (Array.length t.probs) in
    let acc = ref Math_utils.kahan_zero in
    for i = 0 to hi do
      acc := Math_utils.kahan_add !acc t.dist.(i)
    done;
    Math_utils.clamp_prob (Math_utils.kahan_total !acc)
  end
