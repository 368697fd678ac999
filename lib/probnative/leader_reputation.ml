let timeout_multipliers ?(spread = 2.) fleet =
  if spread < 0. then invalid_arg "Leader_reputation.timeout_multipliers: negative spread";
  let ranked = Faultmodel.Fleet.most_reliable fleet in
  let n = Faultmodel.Fleet.size fleet in
  let multipliers = Array.make n 1. in
  List.iteri
    (fun rank u ->
      let fraction = if n = 1 then 0. else float_of_int rank /. float_of_int (n - 1) in
      multipliers.(u) <- 1. +. (spread *. fraction))
    ranked;
  multipliers

let leader_fault_probability fleet ~strategy =
  let probs = Faultmodel.Fleet.fault_probs fleet in
  match strategy with
  | `Uniform ->
      Prob.Math_utils.kahan_sum probs /. float_of_int (Array.length probs)
  | `Reputation -> Array.fold_left Float.min 1. probs

let expected_reelections fleet ~strategy ~horizon =
  let at = 8766. in
  let nodes = Faultmodel.Fleet.nodes fleet in
  let steps = 100 in
  let dt = horizon /. float_of_int steps in
  let total = ref 0. in
  for step = 0 to steps - 1 do
    let t = at +. (float_of_int step *. dt) in
    let hazards =
      Array.map (fun node -> Faultmodel.Fault_curve.hazard_rate node.Faultmodel.Node.curve t) nodes
    in
    let leader_hazard =
      match strategy with
      | `Uniform ->
          Prob.Math_utils.kahan_sum hazards /. float_of_int (Array.length hazards)
      | `Reputation -> Array.fold_left Float.min infinity hazards
    in
    total := !total +. (leader_hazard *. dt)
  done;
  !total
