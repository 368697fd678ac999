type t = {
  quorum_availability : float;
  failover_unavailability : float;
  availability : float;
  durability : float;
}

let failover_loss ~(spec : Markov.Repair_model.spec) ~failover_hours =
  (* The leader is one node failing at rate lambda; each failure costs
     one failover. *)
  spec.Markov.Repair_model.lambda *. failover_hours

let evaluate ~spec ~failover_hours ~mission_hours =
  if failover_hours < 0. then invalid_arg "End_to_end.evaluate: negative failover";
  if mission_hours <= 0. then invalid_arg "End_to_end.evaluate: mission must be positive";
  let quorum_availability = Markov.Repair_model.availability spec in
  let failover_unavailability = failover_loss ~spec ~failover_hours in
  let availability =
    Prob.Math_utils.clamp_prob (quorum_availability -. failover_unavailability)
  in
  let mttdl = Markov.Repair_model.mttdl spec in
  let durability =
    if mttdl = infinity then 1. else exp (-.mission_hours /. mttdl)
  in
  { quorum_availability; failover_unavailability; availability; durability }

let required_failover_hours ~spec ~availability_nines =
  let target = Prob.Nines.to_prob availability_nines in
  let quorum_availability = Markov.Repair_model.availability spec in
  if quorum_availability < target then None
  else begin
    let slack = quorum_availability -. target in
    Some (slack /. spec.Markov.Repair_model.lambda)
  end

let pp fmt t =
  Format.fprintf fmt
    "quorum availability %s, failover loss %.2e -> availability %s (%.1f nines), \
     durability %s (%.1f nines)"
    (Prob.Nines.percent_string t.quorum_availability)
    t.failover_unavailability
    (Prob.Nines.percent_string t.availability)
    (Prob.Nines.of_prob t.availability)
    (Prob.Nines.percent_string t.durability)
    (Prob.Nines.of_prob t.durability)
