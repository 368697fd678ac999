type raft_choice = {
  params : Raft_model.params;
  p_live : float;
  p_safe_live : float;
}

let raft_sizings fleet =
  let n = Faultmodel.Fleet.size fleet in
  let choices = ref [] in
  (* Structural safety needs 2*q_vc > n and q_per + q_vc > n; for a
     fixed q_vc the smallest safe q_per is n - q_vc + 1. *)
  for q_vc = (n / 2) + 1 to n do
    let q_per = n - q_vc + 1 in
    let params = Raft_model.flexible ~n ~q_per ~q_vc in
    let result = Analysis.run (Raft_model.protocol params) fleet in
    choices :=
      {
        params;
        p_live = result.Analysis.p_live;
        p_safe_live = result.Analysis.p_safe_live;
      }
      :: !choices
  done;
  (* Smallest q_per first = largest q_vc first reversed below. *)
  List.sort
    (fun a b -> Int.compare a.params.Raft_model.q_per b.params.Raft_model.q_per)
    !choices

let best_raft ~target_live fleet =
  List.find_opt (fun c -> c.p_live >= target_live) (raft_sizings fleet)

(* Uncertainty-discounted sizing: each node's effective fault
   probability is [1 - (1 - p) / (1 + uncertainty)] — its reliability
   divided by how little we trust the estimate — so the search sizes
   for the fleet we might have, not the fleet we think we have. Zero
   uncertainty keeps [p] bit-identical (guarded explicitly so the
   reduction to {!best_raft} is exact, not merely close). *)
let best_raft_weighted ?at ~uncertainty ~target_live fleet =
  let probs = Faultmodel.Fleet.fault_probs ?at fleet in
  let nodes =
    Array.to_list
      (Array.mapi
         (fun id p ->
           let unc = uncertainty id in
           if not (Float.is_finite unc) || unc < 0. then
             invalid_arg "Dynamic_quorum.best_raft_weighted: bad uncertainty";
           let p' = if unc = 0. then p else 1. -. ((1. -. p) /. (1. +. unc)) in
           Faultmodel.Node.make ~id (Faultmodel.Fault_curve.constant p'))
         probs)
  in
  best_raft ~target_live (Faultmodel.Fleet.of_nodes nodes)
