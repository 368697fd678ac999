type t = { nodes : Node.t array }

let of_nodes list =
  let nodes = Array.of_list list in
  let nodes = Array.mapi (fun i n -> { n with Node.id = i }) nodes in
  { nodes }

let uniform ?byz_fraction ~n ~p () =
  if n <= 0 then invalid_arg "Fleet.uniform: n must be positive";
  of_nodes
    (List.init n (fun id -> Node.make ?byz_fraction ~id (Fault_curve.constant p)))

let mixed groups =
  let nodes =
    List.concat_map
      (fun (count, p) ->
        if count < 0 then invalid_arg "Fleet.mixed: negative group size";
        List.init count (fun _ -> Node.make ~id:0 (Fault_curve.constant p)))
      groups
  in
  if nodes = [] then invalid_arg "Fleet.mixed: empty fleet";
  of_nodes nodes

let size t = Array.length t.nodes
let nodes t = t.nodes
let node t i = t.nodes.(i)

let fault_probs ?at t = Array.map (fun n -> Node.fault_probability ?at n) t.nodes
let byz_probs ?at t = Array.map (fun n -> Node.byz_probability ?at n) t.nodes
let crash_probs ?at t = Array.map (fun n -> Node.crash_probability ?at n) t.nodes


let most_reliable t =
  let probs = fault_probs t in
  let ids = List.init (size t) Fun.id in
  List.sort
    (fun a b ->
      match Float.compare probs.(a) probs.(b) with 0 -> Int.compare a b | c -> c)
    ids
