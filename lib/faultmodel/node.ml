type t = { id : int; label : string; curve : Fault_curve.t; byz_fraction : float }

let make ?label ?(byz_fraction = 0.) ~id curve =
  if byz_fraction < 0. || byz_fraction > 1. then
    invalid_arg "Node.make: byz_fraction must be in [0, 1]";
  let label = match label with Some l -> l | None -> Printf.sprintf "node-%d" id in
  { id; label; curve; byz_fraction }

let default_horizon = 8766. (* one year, in hours *)

let fault_probability ?(at = default_horizon) t = Fault_curve.eval t.curve at
let byz_probability ?at t = fault_probability ?at t *. t.byz_fraction
let crash_probability ?at t = fault_probability ?at t *. (1. -. t.byz_fraction)
