type deployment = {
  machine : Machine.t;
  n : int;
  reliability : float;
  hourly_cost : float;
  annual_carbon : float;
}

type objective = Cost | Carbon

let deployment_of machine n =
  {
    machine;
    n;
    reliability =
      Probcons.Raft_model.safe_and_live_uniform ~n ~p:machine.Machine.fault_probability;
    hourly_cost = Machine.cluster_hourly_cost machine n;
    annual_carbon = Machine.cluster_annual_carbon machine n;
  }

let min_cluster machine ~target () =
  let rec go n =
    if n > 99 then None
    else begin
      let d = deployment_of machine n in
      if d.reliability >= target then Some d else go (n + 2)
    end
  in
  go 1

let objective_value objective d =
  match objective with Cost -> d.hourly_cost | Carbon -> d.annual_carbon

let optimize ?(objective = Cost) ~target () =
  List.fold_left
    (fun best machine ->
      match min_cluster machine ~target () with
      | None -> best
      | Some d -> (
          match best with
          | None -> Some d
          | Some b ->
              if objective_value objective d < objective_value objective b then Some d
              else best))
    None Machine.default_catalog

let savings_vs ~baseline d =
  if d.hourly_cost = 0. then infinity else baseline.hourly_cost /. d.hourly_cost

let pp_deployment fmt d =
  Format.fprintf fmt "%d x %s: reliability %s, $%.2f/h, %.0f kgCO2e/yr" d.n
    d.machine.Machine.name
    (Prob.Nines.percent_string d.reliability)
    d.hourly_cost d.annual_carbon
