type t = {
  engine : Dessim.Engine.t;
  net : Rabia_types.msg Dessim.Network.t;
  nodes : Rabia_node.t array;
  trace : Dessim.Trace.t;
}

let create ?(seed = 7) ?drop_probability ~n () =
  let engine = Dessim.Engine.create ~seed () in
  let net = Dessim.Network.create ~engine ~n ?drop_probability () in
  let trace = Dessim.Trace.create () in
  let nodes =
    Array.init n (fun id ->
        Rabia_node.create (Rabia_node.default_config ~id ~n) ~engine ~net ~trace)
  in
  { engine; net; nodes; trace }

let engine t = t.engine
let node t i = t.nodes.(i)

let submit_workload t ~commands ~start ~interval =
  List.iteri
    (fun i command ->
      ignore
        (Dessim.Engine.schedule_at t.engine
           ~time:(start +. (float_of_int i *. interval))
           (fun () ->
             Array.iter
               (fun node ->
                 if Rabia_node.alive node then Rabia_node.submit node command)
               t.nodes)))
    commands

let inject t plan =
  Dessim.Fault_injector.apply ~engine:t.engine
    ~set_down:(fun id down -> Rabia_node.set_down t.nodes.(id) down)
    ~set_byzantine:(fun _ _ ->
      invalid_arg "Rabia (this variant) is crash-fault tolerant only")
    plan

let run t ~until = Dessim.Engine.run ~until t.engine

type report = {
  agreement_ok : bool;
  live : bool;
  committed_counts : int array;
  null_slots : int;
}

let prefix_compatible a b =
  let rec go = function
    | [], _ | _, [] -> true
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (a, b)

let check t ~expected ~correct =
  let n = Array.length t.nodes in
  let committed = Array.init n (fun i -> Rabia_node.committed t.nodes.(i)) in
  let agreement_ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (prefix_compatible committed.(i) committed.(j)) then agreement_ok := false
    done
  done;
  let live =
    List.for_all
      (fun node_id ->
        List.for_all (fun cmd -> List.mem cmd committed.(node_id)) expected)
      correct
  in
  {
    agreement_ok = !agreement_ok;
    live;
    committed_counts = Array.map List.length committed;
    null_slots = Dessim.Trace.count t.trace ~tag:"commit-null";
  }

let message_stats t =
  (Dessim.Network.messages_sent t.net, Dessim.Network.messages_delivered t.net)
