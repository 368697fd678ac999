type t = {
  engine : Dessim.Engine.t;
  nodes : Benor_node.t array;
  initial_values : int array;
}

let create ?(seed = 7) ?drop_probability ?common_coin ~initial_values () =
  let n = List.length initial_values in
  if n = 0 then invalid_arg "Benor_cluster.create: need at least one node";
  let engine = Dessim.Engine.create ~seed () in
  let net = Dessim.Network.create ~engine ~n ?drop_probability () in
  let trace = Dessim.Trace.create () in
  let initial_values = Array.of_list initial_values in
  let nodes =
    Array.init n (fun id ->
        let config = { (Benor_node.default_config ~id ~n) with common_coin } in
        Benor_node.create config ~engine ~net ~trace ~initial:initial_values.(id))
  in
  { engine; nodes; initial_values }

let node t i = t.nodes.(i)

let inject t plan =
  Dessim.Fault_injector.apply ~engine:t.engine
    ~set_down:(fun id down -> Benor_node.set_down t.nodes.(id) down)
    ~set_byzantine:(fun _ _ ->
      invalid_arg "Ben-Or (this variant) is crash-fault tolerant only")
    plan

let run t ~until = Dessim.Engine.run ~until t.engine

type report = {
  agreement_ok : bool;
  validity_ok : bool;
  all_correct_decided : bool;
  decisions : (int * int option) list;
  max_round : int;
}

let check t ~correct =
  let decisions =
    Array.to_list (Array.mapi (fun i node -> (i, Benor_node.decision node)) t.nodes)
  in
  let decided_values = List.filter_map snd decisions in
  let agreement_ok =
    match decided_values with
    | [] -> true
    | v :: rest -> List.for_all (fun w -> w = v) rest
  in
  let validity_ok =
    match decided_values with
    | [] -> true
    | v :: _ -> Array.exists (fun init -> init = v) t.initial_values
  in
  let all_correct_decided =
    List.for_all (fun i -> Benor_node.decision t.nodes.(i) <> None) correct
  in
  let max_round =
    Array.fold_left
      (fun acc node ->
        match Benor_node.decided_round node with Some r -> max acc r | None -> acc)
      0 t.nodes
  in
  { agreement_ok; validity_ok; all_correct_decided; decisions; max_round }
