type comparison = {
  base : Analysis.result;
  alt : Analysis.result;
  safety_improvement : float;
  liveness_degradation : float;
}

let ratio num den = if den = 0. then infinity else num /. den

let compare_deployments (proto_base, fleet_base) (proto_alt, fleet_alt) =
  let base = Analysis.run proto_base fleet_base in
  let alt = Analysis.run proto_alt fleet_alt in
  {
    base;
    alt;
    safety_improvement = ratio (1. -. base.p_safe) (1. -. alt.p_safe);
    liveness_degradation = ratio (1. -. alt.p_live) (1. -. base.p_live);
  }

let pbft_node_count ~p ~n_base ~n_alt =
  let deployment n =
    ( Pbft_model.protocol (Pbft_model.default n),
      Faultmodel.Fleet.uniform ~byz_fraction:1. ~n ~p () )
  in
  compare_deployments (deployment n_base) (deployment n_alt)
