type t = {
  engine : Dessim.Engine.t;
  net : Raft_types.msg Dessim.Network.t;
  nodes : Raft_node.t array;
  applied : int Dessim.Vec.t array;  (* each node's applied commands *)
  trace : Dessim.Trace.t;
}

let create ?(seed = 7) ?drop_probability ?q_vote ?q_replicate
    ?timeout_multipliers ?initial_members ~n () =
  let engine = Dessim.Engine.create ~seed () in
  let net = Dessim.Network.create ~engine ~n ?drop_probability () in
  let trace = Dessim.Trace.create () in
  (* Each node's stream is split off the root after the network's, in
     id order: a seeded run depends on that order. *)
  let nodes =
    Array.init n (fun id ->
        let base = Raft_node.default_config ~id ~n in
        let config =
          {
            base with
            Raft_node.q_vote = Option.value q_vote ~default:base.Raft_node.q_vote;
            q_replicate = Option.value q_replicate ~default:base.Raft_node.q_replicate;
            timeout_multiplier =
              (match timeout_multipliers with
              | Some m -> m.(id)
              | None -> base.Raft_node.timeout_multiplier);
            initial_members;
          }
        in
        Raft_node.create config ~trace
          ~rng:(Prob.Rng.split (Dessim.Engine.rng engine))
          ~io:
            {
              now = (fun () -> Dessim.Engine.now engine);
              after =
                (fun delay f ->
                  let event = Dessim.Engine.schedule engine ~delay f in
                  fun () -> Dessim.Engine.cancel event);
              send = (fun dst msg -> Dessim.Network.send net ~src:id ~dst msg);
            })
  in
  let applied = Array.init n (fun _ -> Dessim.Vec.create ()) in
  Array.iteri
    (fun id node ->
      Dessim.Network.set_handler net id (fun ~src:_ -> Raft_node.handle_message node);
      Raft_node.set_apply_hook node (function
        | { command = Data command; _ } -> Dessim.Vec.push applied.(id) command
        | { command = Config _; _ } -> ()))
    nodes;
  { engine; net; nodes; applied; trace }

let engine t = t.engine
let trace t = t.trace
let node t i = t.nodes.(i)
let size t = Array.length t.nodes

let try_submit t command =
  Array.exists (fun node -> Raft_node.submit node command) t.nodes

let submit_workload t ~commands ~start ~interval =
  List.iteri
    (fun i command ->
      let rec attempt () =
        if not (try_submit t command) then
          ignore (Dessim.Engine.schedule t.engine ~delay:interval attempt)
      in
      ignore
        (Dessim.Engine.schedule_at t.engine
           ~time:(start +. (float_of_int i *. interval))
           attempt))
    commands

(* A down node neither sends nor takes messages. *)
let set_down t id down =
  Raft_node.set_down t.nodes.(id) down;
  Dessim.Network.set_down t.net id down

let inject t plan =
  Dessim.Fault_injector.apply ~engine:t.engine ~set_down:(set_down t)
    ~set_byzantine:(fun _ _ ->
      invalid_arg "Raft is crash-fault-tolerant only; use the PBFT cluster for Byzantine plans")
    plan

let partition_at t ~time group_a group_b =
  ignore
    (Dessim.Engine.schedule_at t.engine ~time (fun () ->
         Dessim.Network.partition t.net group_a group_b))

let heal_at t ~time =
  ignore
    (Dessim.Engine.schedule_at t.engine ~time (fun () -> Dessim.Network.heal t.net))

let run t ~until = Dessim.Engine.run ~until t.engine

let committed t i = Dessim.Vec.to_list t.applied.(i)

let leader_ids t =
  Array.to_list t.nodes
  |> List.filter_map (fun node ->
         if Raft_node.is_leader node then Some (Raft_node.id node) else None)

let current_leader t =
  List.fold_left
    (fun best id ->
      match best with
      | None -> Some id
      | Some other ->
          if Raft_node.current_term t.nodes.(id) > Raft_node.current_term t.nodes.(other)
          then Some id
          else best)
    None (leader_ids t)

let members_view t =
  Option.map (fun leader -> Raft_node.members t.nodes.(leader)) (current_leader t)

let add_server t server =
  match current_leader t with
  | None -> false
  | Some leader ->
      let node = t.nodes.(leader) in
      let proposal = List.sort_uniq compare (server :: Raft_node.members node) in
      Raft_node.submit_config node proposal

let remove_server t server =
  match current_leader t with
  | None -> false
  | Some leader ->
      let node = t.nodes.(leader) in
      let proposal = List.filter (fun u -> u <> server) (Raft_node.members node) in
      Raft_node.submit_config node proposal

let retire_at t ~time server =
  ignore
    (Dessim.Engine.schedule_at t.engine ~time (fun () -> set_down t server true))

let message_stats t =
  (Dessim.Network.messages_sent t.net, Dessim.Network.messages_delivered t.net)
