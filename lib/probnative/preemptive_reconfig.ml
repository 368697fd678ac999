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

let decide risks ~tolerated ~target_live ~victim ~replacement =
  let live_before = Prob.Poisson_binomial.cdf_le risks tolerated in
  let risk = risks.(victim) in
  if live_before >= target_live || risk <= replacement then None
  else begin
    let swapped = Array.copy risks in
    swapped.(victim) <- replacement;
    let live_after = Prob.Poisson_binomial.cdf_le swapped tolerated in
    if live_after > live_before then Some { victim; risk; live_before; live_after }
    else None
  end
