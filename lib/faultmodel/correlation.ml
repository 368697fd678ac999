type domain_spec = {
  members : int list;
  shock_probability : float;
  conditional_failure : float;
  byzantine_shock : bool;
}

type t =
  | Independent
  | Domains of domain_spec list
  | Mixture of (float * float) list

type kind = Ok | Crash | Byz

let own_kind rng probs byz_fracs u =
  if Prob.Rng.bool rng probs.(u) then
    if Prob.Rng.bool rng byz_fracs.(u) then Byz else Crash
  else Ok

let sample_kinds_independent rng probs byz_fracs =
  Array.init (Array.length probs) (own_kind rng probs byz_fracs)

let merge a b =
  match (a, b) with
  | Byz, _ | _, Byz -> Byz
  | Crash, _ | _, Crash -> Crash
  | Ok, Ok -> Ok

let byz_fractions fleet =
  Array.map (fun node -> node.Node.byz_fraction) (Fleet.nodes fleet)

let sample_kinds model fleet rng =
  let probs = Fleet.fault_probs fleet in
  let byz_fracs = byz_fractions fleet in
  match model with
  | Independent -> sample_kinds_independent rng probs byz_fracs
  | Domains specs ->
      let kinds = sample_kinds_independent rng probs byz_fracs in
      List.iter
        (fun { members; shock_probability; conditional_failure; byzantine_shock } ->
          if Prob.Rng.bool rng shock_probability then
            List.iter
              (fun u ->
                if u >= 0 && u < Array.length kinds
                   && Prob.Rng.bool rng conditional_failure
                then
                  kinds.(u) <-
                    merge kinds.(u) (if byzantine_shock then Byz else Crash))
              members)
        specs;
      kinds
  | Mixture envs ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. envs in
      let roll = Prob.Rng.float rng *. total in
      let rec pick acc = function
        | [] -> 1.
        | (w, factor) :: rest ->
            if roll < acc +. w then factor else pick (acc +. w) rest
      in
      let factor = pick 0. envs in
      let scaled = Array.map (fun p -> Prob.Math_utils.clamp_prob (p *. factor)) probs in
      sample_kinds_independent rng scaled byz_fracs

let sample model fleet rng =
  Array.map (fun k -> k <> Ok) (sample_kinds model fleet rng)

let marginal_probability model fleet u =
  let probs = Fleet.fault_probs fleet in
  let own = probs.(u) in
  match model with
  | Independent -> own
  | Domains specs ->
      (* Survive iff own fault doesn't fire and every covering shock
         either misses or spares this member. *)
      let survive = ref (1. -. own) in
      List.iter
        (fun { members; shock_probability; conditional_failure; _ } ->
          if List.mem u members then
            survive := !survive *. (1. -. (shock_probability *. conditional_failure)))
        specs;
      Prob.Math_utils.clamp_prob (1. -. !survive)
  | Mixture envs ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. envs in
      let acc =
        List.fold_left
          (fun acc (w, factor) ->
            acc +. (w /. total *. Prob.Math_utils.clamp_prob (own *. factor)))
          0. envs
      in
      Prob.Math_utils.clamp_prob acc

let pairwise_correlation model fleet rng u v =
  let trials = 20_000 in
  let sum_u = ref 0 and sum_v = ref 0 and sum_uv = ref 0 in
  for _ = 1 to trials do
    let failed = sample model fleet rng in
    if failed.(u) then incr sum_u;
    if failed.(v) then incr sum_v;
    if failed.(u) && failed.(v) then incr sum_uv
  done;
  let n = float_of_int trials in
  let mu = float_of_int !sum_u /. n and mv = float_of_int !sum_v /. n in
  let cov = (float_of_int !sum_uv /. n) -. (mu *. mv) in
  let su = sqrt (mu *. (1. -. mu)) and sv = sqrt (mv *. (1. -. mv)) in
  if su = 0. || sv = 0. then 0. else cov /. (su *. sv)
