type committee = {
  members : int list;
  params : Raft_model.params;
  p_safe_live : float;
}

let committee_of ?at fleet members =
  let nodes = Faultmodel.Fleet.nodes fleet in
  let sub =
    Faultmodel.Fleet.of_nodes (List.map (fun u -> nodes.(u)) members)
  in
  let params = Raft_model.default (List.length members) in
  let result = Analysis.run ?at (Raft_model.protocol params) sub in
  { members; params; p_safe_live = result.Analysis.p_safe_live }

let reliability_ranked ~target fleet =
  let ranked = Faultmodel.Fleet.most_reliable fleet in
  let n = Faultmodel.Fleet.size fleet in
  let rec go k =
    if k > n then None
    else begin
      let members = List.filteri (fun i _ -> i < k) ranked in
      let c = committee_of fleet members in
      if c.p_safe_live >= target then Some c else go (k + 2)
    end
  in
  go 1

(* Reliability weighted against estimate uncertainty: score
   [(1 - p) / (1 + uncertainty)], best first. With zero uncertainty the
   score order is exactly the fault-probability order, and the
   secondary key keeps even score {e ties} resolved the same way
   [Fleet.most_reliable] resolves them — so the zero-uncertainty case
   reduces to {!reliability_ranked} member for member. *)
let weighted_order ~probs ~scores n =
  List.sort
    (fun a b ->
      match Float.compare scores.(b) scores.(a) with
      | 0 -> (
          match Float.compare probs.(a) probs.(b) with
          | 0 -> Int.compare a b
          | c -> c)
      | c -> c)
    (List.init n Fun.id)

let reliability_weighted ?at ~uncertainty ~target fleet =
  let n = Faultmodel.Fleet.size fleet in
  let probs = Faultmodel.Fleet.fault_probs ?at fleet in
  let scores =
    Array.init n (fun u ->
        let unc = uncertainty u in
        if not (Float.is_finite unc) || unc < 0. then
          invalid_arg "Committee.reliability_weighted: bad uncertainty";
        (1. -. probs.(u)) /. (1. +. unc))
  in
  let ranked = weighted_order ~probs ~scores n in
  let rec go k =
    if k > n then None
    else begin
      let members = List.filteri (fun i _ -> i < k) ranked in
      let c = committee_of ?at fleet members in
      if c.p_safe_live >= target then Some c else go (k + 2)
    end
  in
  go 1

let random_committee rng ~size fleet =
  let n = Faultmodel.Fleet.size fleet in
  if size > n then invalid_arg "Committee.random_committee: size exceeds fleet";
  let members = Prob.Rng.sample_without_replacement rng size n in
  committee_of fleet members

let diversified_ranked ~target ~domains ~max_per_domain fleet =
  if max_per_domain < 1 then invalid_arg "Committee.diversified_ranked: bad cap";
  let domain_of u = List.find_opt (fun members -> List.mem u members) domains in
  let ranked = Faultmodel.Fleet.most_reliable fleet in
  (* Greedy selection in reliability order, skipping nodes whose domain
     is already at the cap; grow odd sizes until the target is met. *)
  let admissible k =
    let counts = Hashtbl.create 8 in
    let rec pick chosen = function
      | [] -> List.rev chosen
      | u :: rest ->
          if List.length chosen >= k then List.rev chosen
          else begin
            let key = domain_of u in
            let used = Option.value (Hashtbl.find_opt counts key) ~default:0 in
            if key <> None && used >= max_per_domain then pick chosen rest
            else begin
              Hashtbl.replace counts key (used + 1);
              pick (u :: chosen) rest
            end
          end
    in
    let members = pick [] ranked in
    if List.length members = k then Some members else None
  in
  let n = Faultmodel.Fleet.size fleet in
  let rec go k =
    if k > n then None
    else begin
      match admissible k with
      | None -> None (* caps exhausted: larger committees are impossible too *)
      | Some members ->
          let c = committee_of fleet members in
          if c.p_safe_live >= target then Some c else go (k + 2)
    end
  in
  go 1

let random_committee_size rng ~target fleet =
  let trials = 50 in
  let n = Faultmodel.Fleet.size fleet in
  let rec go k =
    if k > n then None
    else begin
      let total = ref 0. in
      for _ = 1 to trials do
        let c = random_committee rng ~size:k fleet in
        total := !total +. c.p_safe_live
      done;
      if !total /. float_of_int trials >= target then Some k else go (k + 2)
    end
  in
  go 1
