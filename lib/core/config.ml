type status = Correct | Crashed | Byzantine

type t = status array

let of_failed_subset ~n ~byzantine failed =
  Array.init n (fun u ->
      if Quorum.Subset.mem failed u then (if byzantine then Byzantine else Crashed)
      else Correct)

let count status t =
  Array.fold_left (fun acc s -> if s = status then acc + 1 else acc) 0 t

let num_crashed = count Crashed
let num_byzantine = count Byzantine

let probability ~crash_probs ~byz_probs t =
  let p = ref 1. in
  Array.iteri
    (fun u status ->
      let pc = crash_probs.(u) and pb = byz_probs.(u) in
      let factor =
        match status with
        | Correct -> 1. -. pc -. pb
        | Crashed -> pc
        | Byzantine -> pb
      in
      p := !p *. factor)
    t;
  Prob.Math_utils.clamp_prob !p

let sample ~crash_probs ~byz_probs rng =
  Array.init (Array.length crash_probs) (fun u ->
      let roll = Prob.Rng.float rng in
      if roll < byz_probs.(u) then Byzantine
      else if roll < byz_probs.(u) +. crash_probs.(u) then Crashed
      else Correct)

let joint_count_distribution ~crash_probs ~byz_probs =
  let n = Array.length crash_probs in
  if Array.length byz_probs <> n then
    invalid_arg "Config.joint_count_distribution: length mismatch";
  let dist = Array.make_matrix (n + 1) (n + 1) 0. in
  dist.(0).(0) <- 1.;
  (* A fault kind no node has leaves its counts at 0, so the walk stays
     on the other kind's row or column. Every cell it skips holds 0. *)
  let absent probs = Array.for_all (fun p -> p = 0.) probs in
  let no_byz = absent byz_probs in
  let no_crash = (not no_byz) && absent crash_probs in
  for u = 0 to n - 1 do
    let pb = byz_probs.(u) and pc = crash_probs.(u) in
    let pcorrect = 1. -. pb -. pc in
    if pcorrect < -.1e-12 then
      invalid_arg "Config.joint_count_distribution: crash+byz probability exceeds 1";
    let pcorrect = Float.max 0. pcorrect in
    (* After node u only cells with b + c <= u + 1 are reachable. Walk
       counts downward so node u contributes exactly once. *)
    for b = (if no_byz then 0 else u + 1) downto 0 do
      let row = dist.(b) and below = dist.(max 0 (b - 1)) in
      for c = (if no_crash then 0 else u + 1 - b) downto 0 do
        let from_same = if b <= u && c <= u then row.(c) *. pcorrect else 0. in
        let from_byz = if b > 0 then below.(c) *. pb else 0. in
        let from_crash = if c > 0 then row.(c - 1) *. pc else 0. in
        row.(c) <- from_same +. from_byz +. from_crash
      done
    done
  done;
  dist

(* The cells the walk above updates: node u takes u + 2 on one kind's
   row or column, or the (u + 2)(u + 3)/2 of the triangle b + c <= u + 1. *)
let count_dp_cells ~n ~mixed =
  if mixed then ((n + 1) * (n + 2) * (n + 3) / 6) - 1 else n * (n + 3) / 2

let iter_binary_range ~n ~byzantine ~lo ~hi f =
  Quorum.Subset.iter_subsets_range n ~lo ~hi (fun failed ->
      f (of_failed_subset ~n ~byzantine failed))

let ternary_cardinality ~n =
  if n < 0 || n > 13 then invalid_arg "Config.ternary_cardinality: universe too large";
  let rec pow acc k = if k = 0 then acc else pow (acc * 3) (k - 1) in
  pow 1 n

let status_of_digit = function
  | 0 -> Correct
  | 1 -> Crashed
  | _ -> Byzantine

let iter_ternary_range ~n ~lo ~hi f =
  let total = ternary_cardinality ~n in
  if lo < 0 || hi > total || lo > hi then
    invalid_arg "Config.iter_ternary_range: range outside [0, 3^n]";
  if lo < hi then begin
    (* Decode [lo] into base-3 digits (node 0 most significant, matching
       [iter_ternary]'s recursion order), then run the odometer. *)
    let digits = Array.make n 0 in
    let rest = ref lo in
    for u = n - 1 downto 0 do
      digits.(u) <- !rest mod 3;
      rest := !rest / 3
    done;
    let statuses = Array.init n (fun u -> status_of_digit digits.(u)) in
    for _ = lo to hi - 1 do
      f (Array.copy statuses);
      let u = ref (n - 1) in
      let carrying = ref true in
      while !carrying && !u >= 0 do
        if digits.(!u) = 2 then begin
          digits.(!u) <- 0;
          statuses.(!u) <- Correct;
          decr u
        end
        else begin
          digits.(!u) <- digits.(!u) + 1;
          statuses.(!u) <- status_of_digit digits.(!u);
          carrying := false
        end
      done
    done
  end

let iter_ternary ~n f =
  if n > 13 then invalid_arg "Config.iter_ternary: universe too large";
  let statuses = Array.make n Correct in
  let rec go u =
    if u = n then f (Array.copy statuses)
    else begin
      statuses.(u) <- Correct;
      go (u + 1);
      statuses.(u) <- Crashed;
      go (u + 1);
      statuses.(u) <- Byzantine;
      go (u + 1)
    end
  in
  go 0
