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
