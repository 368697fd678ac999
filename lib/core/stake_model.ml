type params = { stakes : float array }

let byz_stake_bound = 1. /. 3.
let live_stake_bound = 2. /. 3.

let make stakes =
  if Array.length stakes = 0 then invalid_arg "Stake_model.make: empty stakes";
  Array.iter
    (fun s -> if s <= 0. then invalid_arg "Stake_model.make: stakes must be positive")
    stakes;
  { stakes }

let total params = Prob.Math_utils.kahan_sum params.stakes

let stake_of params pred config =
  let acc = ref 0. in
  Array.iteri (fun u status -> if pred status then acc := !acc +. params.stakes.(u)) config;
  !acc

let byz_stake_fraction params config =
  stake_of params (fun s -> s = Config.Byzantine) config /. total params

let correct_stake_fraction params config =
  stake_of params (fun s -> s = Config.Correct) config /. total params

let protocol params =
  let n = Array.length params.stakes in
  let safe =
    Protocol.full_predicate (fun config ->
        byz_stake_fraction params config < byz_stake_bound)
  in
  let live =
    Protocol.full_predicate (fun config ->
        correct_stake_fraction params config >= live_stake_bound)
  in
  { Protocol.name = Printf.sprintf "stake(n=%d)" n; n; safe; live }

let nakamoto_coefficient params =
  let sorted = Array.copy params.stakes in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let threshold = byz_stake_bound *. total params in
  let rec go i acc =
    if i >= Array.length sorted then Array.length sorted
    else begin
      let acc = acc +. sorted.(i) in
      if acc >= threshold then i + 1 else go (i + 1) acc
    end
  in
  go 0 0.
