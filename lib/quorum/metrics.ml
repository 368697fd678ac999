type report = {
  system : Quorum_system.t;
  min_quorum : int;
  load : float;
  capacity : float;
  availability : float;
  failure_probability : float;
}

let evaluate system probs =
  let load = Quorum_system.uniform_strategy_load system in
  let availability = Quorum_system.availability system probs in
  {
    system;
    min_quorum = Quorum_system.min_quorum_size system;
    load;
    capacity = (if load > 0. then 1. /. load else infinity);
    availability;
    failure_probability = 1. -. availability;
  }

let evaluate_uniform system ~p =
  evaluate system (Array.make (Quorum_system.size system) p)

type rw_report = {
  n : int;
  r : int;
  w : int;
  consistent : bool;
  write_serial : bool;
  read_availability : float;
  write_availability : float;
}

let evaluate_rw ~n ~r ~w ~p =
  if r < 1 || r > n || w < 1 || w > n then invalid_arg "Metrics.evaluate_rw";
  let availability k = Prob.Distribution.binomial_cdf ~n ~p (n - k) in
  {
    n;
    r;
    w;
    consistent = r + w > n;
    write_serial = 2 * w > n;
    read_availability = availability r;
    write_availability = availability w;
  }

