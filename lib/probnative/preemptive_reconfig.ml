let window_liveness fleet ~quorum ~start ~duration =
  let risks =
    Array.map
      (fun node ->
        Faultmodel.Fault_curve.window_probability node.Faultmodel.Node.curve ~start
          ~duration)
      (Faultmodel.Fleet.nodes fleet)
  in
  Prob.Poisson_binomial.cdf_le risks (Array.length risks - quorum)

let riskiest ?(eligible = fun _ -> true) risks =
  let best = ref None in
  Array.iteri
    (fun u r ->
      if eligible u then
        match !best with
        | Some b when r <= risks.(b) -> ()
        | _ -> best := Some u)
    risks;
  !best

type decision = { victim : int; risk : float; live_before : float; live_after : float }

let decide engine ~tolerated ~target_live ~victim ~replacement =
  let live_before = Prob.Incremental.cdf_le engine tolerated in
  let risk = Prob.Incremental.prob engine victim in
  if live_before >= target_live || risk <= replacement then None
  else begin
    (* Predict the swap with the engine itself: replace the factor,
       read the distribution, and put it back if liveness did not rise. *)
    Prob.Incremental.update engine victim replacement;
    let live_after = Prob.Incremental.cdf_le engine tolerated in
    if live_after > live_before then Some { victim; risk; live_before; live_after }
    else begin
      Prob.Incremental.update engine victim risk;
      None
    end
  end
