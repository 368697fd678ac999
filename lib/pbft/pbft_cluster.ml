type t = {
  engine : Dessim.Engine.t;
  net : Pbft_types.msg Dessim.Network.t;
  nodes : Pbft_node.t array;
  trace : Dessim.Trace.t;
}

let create ?(seed = 7) ?drop_probability ?q_eq ?q_per ?q_vc ?q_vc_t ~n () =
  let engine = Dessim.Engine.create ~seed () in
  let net = Dessim.Network.create ~engine ~n ?drop_probability () in
  let trace = Dessim.Trace.create () in
  let nodes =
    Array.init n (fun id ->
        let base = Pbft_node.default_config ~id ~n in
        let config =
          {
            base with
            Pbft_node.q_eq = Option.value q_eq ~default:base.Pbft_node.q_eq;
            q_per = Option.value q_per ~default:base.Pbft_node.q_per;
            q_vc = Option.value q_vc ~default:base.Pbft_node.q_vc;
            q_vc_t = Option.value q_vc_t ~default:base.Pbft_node.q_vc_t;
          }
        in
        Pbft_node.create config ~engine ~net ~trace)
  in
  { engine; net; nodes; trace }

let engine t = t.engine
let trace t = t.trace
let node t i = t.nodes.(i)
let size t = Array.length t.nodes

let submit_workload t ~commands ~start ~interval =
  List.iteri
    (fun i command ->
      ignore
        (Dessim.Engine.schedule_at t.engine
           ~time:(start +. (float_of_int i *. interval))
           (fun () ->
             Array.iter
               (fun node ->
                 if Pbft_node.alive node then
                   Dessim.Network.send t.net ~src:(Pbft_node.id node)
                     ~dst:(Pbft_node.id node) (Pbft_types.Request { command }))
               t.nodes)))
    commands

let inject t plan =
  Dessim.Fault_injector.apply ~engine:t.engine
    ~set_down:(fun id down -> Pbft_node.set_down t.nodes.(id) down)
    ~set_byzantine:(fun id flag -> Pbft_node.set_byzantine t.nodes.(id) flag)
    plan

let run t ~until = Dessim.Engine.run ~until t.engine

let executed t i = Pbft_node.executed_commands t.nodes.(i)
