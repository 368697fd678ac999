type t = { n : int; q : Linalg.matrix }

let create n =
  if n <= 0 then invalid_arg "Ctmc.create: need at least one state";
  { n; q = Linalg.make n n }

let add_rate t ~src ~dst rate =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Ctmc.add_rate: state out of range";
  if src = dst then invalid_arg "Ctmc.add_rate: self-loop";
  if rate < 0. then invalid_arg "Ctmc.add_rate: negative rate";
  t.q.(src).(dst) <- t.q.(src).(dst) +. rate;
  t.q.(src).(src) <- t.q.(src).(src) -. rate

let generator t = Linalg.copy t.q

let steady_state t = Linalg.solve_normalized_nullspace t.q

let expected_time_to_absorption t ~absorbing ~start =
  if absorbing start then 0.
  else begin
    (* Over transient states: sum_j Q_ij h_j = -1, with h = 0 on the
       absorbing set. *)
    let transient = ref [] in
    for i = t.n - 1 downto 0 do
      if not (absorbing i) then transient := i :: !transient
    done;
    let transient = Array.of_list !transient in
    let index = Array.make t.n (-1) in
    Array.iteri (fun k i -> index.(i) <- k) transient;
    let m = Array.length transient in
    let a = Linalg.make m m and b = Array.make m (-1.) in
    for k = 0 to m - 1 do
      for kj = 0 to m - 1 do
        a.(k).(kj) <- t.q.(transient.(k)).(transient.(kj))
      done
    done;
    match Linalg.solve a b with
    | h -> h.(index.(start))
    | exception Failure _ -> infinity
  end

let absorption_probability t ~absorbing_a ~absorbing_b ~start =
  if absorbing_a start then 1.
  else if absorbing_b start then 0.
  else begin
    let transient = ref [] in
    for i = t.n - 1 downto 0 do
      if not (absorbing_a i || absorbing_b i) then transient := i :: !transient
    done;
    let transient = Array.of_list !transient in
    let index = Array.make t.n (-1) in
    Array.iteri (fun k i -> index.(i) <- k) transient;
    let m = Array.length transient in
    (* sum_{j transient} Q_ij u_j = - sum_{j in A} Q_ij. *)
    let a = Linalg.make m m and b = Array.make m 0. in
    for k = 0 to m - 1 do
      let i = transient.(k) in
      for kj = 0 to m - 1 do
        a.(k).(kj) <- t.q.(i).(transient.(kj))
      done;
      for j = 0 to t.n - 1 do
        if absorbing_a j then b.(k) <- b.(k) -. t.q.(i).(j)
      done
    done;
    match Linalg.solve a b with
    | u -> Prob.Math_utils.clamp_prob u.(index.(start))
    | exception Failure _ -> 0.
  end

let transient t ~p0 ~t:horizon =
  if Array.length p0 <> t.n then
    invalid_arg "Ctmc.transient: initial distribution size mismatch";
  if not (Float.is_finite horizon) || horizon < 0. then
    invalid_arg "Ctmc.transient: time must be finite and non-negative";
  (* Uniformization: P(t) row-vector iteration with the DTMC
     U = I + Q/lambda, lambda >= max_i |Q_ii|. The Poisson-weighted sum
     pi(t) = sum_k e^{-lambda t} (lambda t)^k / k! * p0 U^k converges
     with strictly positive terms, so truncating once the accumulated
     Poisson mass reaches 1 - 1e-15 bounds the error well below the
     1e-9 cross-validation tolerance. *)
  let lambda = ref 0. in
  for i = 0 to t.n - 1 do
    lambda := Float.max !lambda (-.t.q.(i).(i))
  done;
  if !lambda <= 0. || horizon = 0. then Array.copy p0
  else begin
    let lambda = !lambda *. 1.02 in
    let step v =
      (* v U = v + (v Q) / lambda. *)
      let out = Array.copy v in
      for i = 0 to t.n - 1 do
        if v.(i) <> 0. then
          for j = 0 to t.n - 1 do
            out.(j) <- out.(j) +. (v.(i) *. t.q.(i).(j) /. lambda)
          done
      done;
      out
    in
    let a = lambda *. horizon in
    (* Stable Poisson weights: start at the mode and scale, tracking the
       log of the weight to avoid under/overflow for large a. *)
    let acc = Array.make t.n 0. in
    let v = ref (Array.copy p0) in
    let log_w = ref (-.a) (* log of e^{-a} a^0 / 0! *) in
    let mass = ref 0. in
    let k = ref 0 in
    let max_terms = 64 + int_of_float (a +. (12. *. sqrt (a +. 1.))) in
    while !mass < 1. -. 1e-15 && !k <= max_terms do
      let w = Float.exp !log_w in
      if w > 0. then begin
        mass := !mass +. w;
        for i = 0 to t.n - 1 do
          acc.(i) <- acc.(i) +. (w *. !v.(i))
        done
      end;
      v := step !v;
      incr k;
      log_w := !log_w +. Float.log a -. Float.log (float_of_int !k)
    done;
    (* Renormalize the truncated tail so the result stays a distribution. *)
    if !mass > 0. then
      for i = 0 to t.n - 1 do
        acc.(i) <- acc.(i) /. !mass
      done;
    acc
  end

let simulate t rng ~start ~horizon =
  let rec go time state acc =
    let total_rate = -.t.q.(state).(state) in
    if total_rate <= 0. then List.rev acc (* absorbing *)
    else begin
      let dwell = Prob.Rng.exponential rng total_rate in
      let time' = time +. dwell in
      if time' > horizon then List.rev acc
      else begin
        (* Pick the destination proportionally to its rate. *)
        let roll = Prob.Rng.float rng *. total_rate in
        let dst = ref state and acc_rate = ref 0. in
        (try
           for j = 0 to t.n - 1 do
             if j <> state && t.q.(state).(j) > 0. then begin
               acc_rate := !acc_rate +. t.q.(state).(j);
               if roll < !acc_rate then begin
                 dst := j;
                 raise Exit
               end
             end
           done
         with Exit -> ());
        go time' !dst ((time', !dst) :: acc)
      end
    end
  in
  go 0. start [ (0., start) ]
