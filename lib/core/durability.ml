type placement =
  | Worst_case
  | Best_case
  | Random
  | Constrained of { reliable : int list; min_reliable : int }

(* Nodes sorted most failure-prone first. *)
let by_descending_risk probs =
  let ids = List.init (Array.length probs) Fun.id in
  List.sort
    (fun a b ->
      match Float.compare probs.(b) probs.(a) with 0 -> Int.compare a b | c -> c)
    ids

let take k l = List.filteri (fun i _ -> i < k) l

let quorum_for probs placement ~size =
  match placement with
  | Worst_case -> take size (by_descending_risk probs)
  | Best_case -> take size (List.rev (by_descending_risk probs))
  | Random -> assert false (* averaged by [data_loss_probability] *)
  | Constrained { reliable; min_reliable } ->
      if min_reliable > size then invalid_arg "Durability: min_reliable > quorum size";
      if List.length reliable < min_reliable then
        invalid_arg "Durability: not enough reliable nodes";
      (* Worst quorum satisfying the constraint: the riskiest
         min_reliable nodes among the reliable set, padded with the
         riskiest nodes outside it. *)
      let riskiest = by_descending_risk probs in
      let reliable_sorted = List.filter (fun u -> List.mem u reliable) riskiest in
      let others = List.filter (fun u -> not (List.mem u reliable)) riskiest in
      let picked_reliable = take min_reliable reliable_sorted in
      picked_reliable @ take (size - min_reliable) others

(* Average of prod_{u in S} probs.(u) over all size-k subsets S equals
   e_k(probs) / C(n, k); the elementary symmetric polynomial e_k is
   computed by the standard DP. *)
let mean_product_over_ksubsets probs k =
  let n = Array.length probs in
  let e = Array.make (k + 1) 0. in
  e.(0) <- 1.;
  for u = 0 to n - 1 do
    for j = min k (u + 1) downto 1 do
      e.(j) <- e.(j) +. (probs.(u) *. e.(j - 1))
    done
  done;
  e.(k) /. Prob.Math_utils.choose n k

let data_loss_probability fleet placement ~size =
  let probs = Faultmodel.Fleet.fault_probs fleet in
  if size < 1 || size > Array.length probs then
    invalid_arg "Durability: quorum size out of range";
  match placement with
  | Random -> Prob.Math_utils.clamp_prob (mean_product_over_ksubsets probs size)
  | Worst_case | Best_case | Constrained _ ->
      let members = quorum_for probs placement ~size in
      Prob.Math_utils.clamp_prob
        (List.fold_left (fun acc u -> acc *. probs.(u)) 1. members)

let durability fleet placement ~size =
  1. -. data_loss_probability fleet placement ~size
