let disjoint_probability ~n ~k1 ~k2 =
  if k1 + k2 > n then 0.
  else if k1 = 0 || k2 = 0 then 1.
  else
    exp (Prob.Math_utils.log_choose (n - k1) k2 -. Prob.Math_utils.log_choose n k2)

let intersection_probability ~n ~k1 ~k2 =
  Prob.Math_utils.clamp_prob (1. -. disjoint_probability ~n ~k1 ~k2)

let epsilon_intersecting_size ~n ~epsilon =
  if epsilon <= 0. then invalid_arg "Probabilistic.epsilon_intersecting_size";
  let rec go k =
    if k > n then n
    else if disjoint_probability ~n ~k1:k ~k2:k <= epsilon then k
    else go (k + 1)
  in
  go 1

let contains_correct ~n ~k ~p =
  if k > n then invalid_arg "Probabilistic.contains_correct: k > n";
  (* Each member of a uniform random subset is faulty with probability
     p independently of the choice of subset, so the k members are all
     faulty with probability p^k. *)
  Prob.Math_utils.clamp_prob (1. -. (p ** float_of_int k))

let quorum_size_for_correct ~p ~target =
  if target >= 1. || p >= 1. then invalid_arg "Probabilistic.quorum_size_for_correct";
  if p <= 0. then 1
  else begin
    (* p^k <= 1 - target  =>  k >= log(1-target)/log p. *)
    let k = int_of_float (Float.ceil (log (1. -. target) /. log p)) in
    max 1 k
  end
