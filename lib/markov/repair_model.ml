type spec = { n : int; quorum : int; lambda : float; mu : float }

let of_afr ~n ~quorum ~afr ~mttr_hours =
  if afr <= 0. || afr >= 1. then invalid_arg "Repair_model.of_afr: afr must be in (0,1)";
  if mttr_hours <= 0. then invalid_arg "Repair_model.of_afr: mttr must be positive";
  let hours_per_year = 8766. in
  { n; quorum; lambda = -.Float.log1p (-.afr) /. hours_per_year; mu = 1. /. mttr_hours }

let validate { n; quorum; lambda; mu } =
  if n <= 0 || quorum <= 0 || quorum > n then invalid_arg "Repair_model: bad sizes";
  if lambda <= 0. || mu <= 0. then invalid_arg "Repair_model: rates must be positive"

(* States 0..n = number of failed nodes; failures at rate (n-k)*lambda,
   parallel repairs at rate k*mu. *)
let availability_chain spec =
  validate spec;
  let chain = Ctmc.create (spec.n + 1) in
  for k = 0 to spec.n - 1 do
    Ctmc.add_rate chain ~src:k ~dst:(k + 1) (float_of_int (spec.n - k) *. spec.lambda)
  done;
  for k = 1 to spec.n do
    Ctmc.add_rate chain ~src:k ~dst:(k - 1) (float_of_int k *. spec.mu)
  done;
  chain

let down_threshold spec = spec.n - spec.quorum + 1
(* Quorum lost once this many nodes have failed. *)

let mttf spec =
  let chain = availability_chain spec in
  Ctmc.expected_time_to_absorption chain
    ~absorbing:(fun k -> k >= down_threshold spec)
    ~start:0

let mttr_cluster spec =
  let chain = availability_chain spec in
  Ctmc.expected_time_to_absorption chain
    ~absorbing:(fun k -> k < down_threshold spec)
    ~start:(down_threshold spec)

let mtbf spec = mttf spec +. mttr_cluster spec

let availability spec =
  let chain = availability_chain spec in
  let pi = Ctmc.steady_state chain in
  let acc = ref 0. in
  for k = 0 to down_threshold spec - 1 do
    acc := !acc +. pi.(k)
  done;
  Prob.Math_utils.clamp_prob !acc

let mttdl spec =
  validate spec;
  (* Holders of one committed entry: quorum copies. Failed holders are
     re-replicated at rate mu each; all-holders-failed is absorbing. *)
  let copies = spec.quorum in
  let chain = Ctmc.create (copies + 1) in
  for k = 0 to copies - 1 do
    Ctmc.add_rate chain ~src:k ~dst:(k + 1) (float_of_int (copies - k) *. spec.lambda);
    if k > 0 then Ctmc.add_rate chain ~src:k ~dst:(k - 1) (float_of_int k *. spec.mu)
  done;
  Ctmc.expected_time_to_absorption chain ~absorbing:(fun k -> k >= copies) ~start:0
