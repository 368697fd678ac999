type kill = { node : int; at : float; back_at : float option }
type partition = { isolated : int; from : float; until : float }

type t = {
  n : int;
  cluster_seed : int;
  drop_probability : float;
  kills : kill list;
  partition : partition option;
  ops : int list;
  horizon : float;
}

let system_name = "replica"

(* Bounds shared by the generator and the decoder. *)
let min_n = 3
let max_n = 7
let max_ops = 64
let max_kills = 8
let max_horizon = 1e6

(* A quorum of schedule-up replicas that stays leaderless longer than
   this (sim ms) fails the failover-latency invariant. Election
   timeouts are 150-300 ms, so even a few drop-mangled rounds finish
   well inside it. *)
let failover_bound = 8000.
let probe_every = 100.

(* The workload offers op [i] at [submit_start + i * submit_every]. *)
let submit_start = 500.
let submit_every = 100.

(* --- Execution --------------------------------------------------------- *)

let injector_plan t =
  List.map
    (fun k ->
      match k.back_at with
      | None -> (k.node, Dessim.Fault_injector.Crash_at k.at)
      | Some back_at ->
          (k.node, Dessim.Fault_injector.Crash_restart { at = k.at; back_at }))
    t.kills

(* Is [node] up at [time] under the kill schedule, and not cut off by
   the partition? Restarts count as up the moment they fire — a
   rebooted replica can vote immediately. *)
let up_at t node time =
  List.for_all
    (fun k ->
      k.node <> node
      ||
      match k.back_at with
      | None -> time < k.at
      | Some back -> time < k.at || time >= back)
    t.kills
  &&
  match t.partition with
  | Some p when p.isolated = node -> time < p.from || time >= p.until
  | _ -> true

let rec is_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let fail invariant fmt =
  Printf.ksprintf (fun detail -> Harness.Fail { invariant; detail }) fmt

exception Violated of Harness.outcome

let run t =
  let cluster =
    Raft_sim.Raft_cluster.create ~seed:t.cluster_seed
      ~drop_probability:t.drop_probability ~n:t.n ()
  in
  Raft_sim.Raft_cluster.inject cluster (injector_plan t);
  Option.iter
    (fun p ->
      Raft_sim.Raft_cluster.partition_at cluster ~time:p.from [ p.isolated ]
        (List.filter (fun i -> i <> p.isolated) (List.init t.n Fun.id));
      Raft_sim.Raft_cluster.heal_at cluster ~time:p.until)
    t.partition;
  Raft_sim.Raft_cluster.submit_workload cluster ~commands:t.ops
    ~start:submit_start ~interval:submit_every;
  (* Stepped run: advance the simulator probe by probe, checking
     invariants against the committed state at every probe instead of
     only at the end. *)
  let acked : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let leaderless_since = ref None in
  let worst_stretch = ref 0. in
  let committed i = Raft_sim.Raft_cluster.committed cluster i in
  let node i = Raft_sim.Raft_cluster.node cluster i in
  (* Read-index linearizability: at every probe each node that believes
     it leads starts a read; a read it confirms must cover the highest
     commit index any replica had when the read began. The callbacks
     run inside the simulator, so the first violation waits here for
     the next probe. *)
  let stale_read = ref None in
  let start_reads now =
    let highest =
      List.fold_left
        (fun acc i -> max acc (Raft_sim.Raft_node.commit_index (node i)))
        0 (List.init t.n Fun.id)
    in
    for i = 0 to t.n - 1 do
      if Raft_sim.Raft_node.is_leader (node i) then
        ignore
          (Raft_sim.Raft_node.read_index (node i) (function
            | Some index when index < highest && !stale_read = None ->
                stale_read :=
                  Some
                    (fail "read_index_linearizable"
                       "node %d confirmed a read issued at t=%.0f at index %d, \
                        but index %d was committed then"
                       i now index highest)
            | _ -> ()))
    done
  in
  let check_probe now =
    Option.iter (fun outcome -> raise (Violated outcome)) !stale_read;
    (* Committed-prefix agreement: any two applied sequences must be
       prefix-comparable at every probe. *)
    for i = 0 to t.n - 1 do
      let ci = committed i in
      for j = i + 1 to t.n - 1 do
        let cj = committed j in
        if not (is_prefix ci cj || is_prefix cj ci) then
          raise
            (Violated
               (fail "committed_prefix_agreement"
                  "nodes %d and %d diverge at t=%.0f: [%s] vs [%s]" i j now
                  (String.concat ";" (List.map string_of_int ci))
                  (String.concat ";" (List.map string_of_int cj))))
      done;
      (* Every command a replica has applied was acknowledged to some
         client by a committed-index advance; record it. *)
      List.iter (fun c -> Hashtbl.replace acked c ()) ci
    done;
    (* Failover latency: a schedule-up majority must not sit leaderless
       past the bound. *)
    let up = List.length (List.filter (fun i -> up_at t i now) (List.init t.n Fun.id)) in
    let quorum_up = up >= (t.n / 2) + 1 in
    let has_leader =
      List.exists (fun i -> up_at t i now) (Raft_sim.Raft_cluster.leader_ids cluster)
    in
    if quorum_up && not has_leader then begin
      (match !leaderless_since with
      | None -> leaderless_since := Some now
      | Some since ->
          let stretch = now -. since in
          if stretch > !worst_stretch then worst_stretch := stretch;
          if stretch > failover_bound then
            raise
              (Violated
                 (fail "failover_latency_bounded"
                    "a quorum (%d/%d up) stayed leaderless for %.0f ms \
                     (bound %.0f) ending at t=%.0f"
                    up t.n stretch failover_bound now)))
    end
    else leaderless_since := None
  in
  match
    let time = ref probe_every in
    while !time <= t.horizon do
      Raft_sim.Raft_cluster.run cluster ~until:!time;
      check_probe !time;
      start_reads !time;
      time := !time +. probe_every
    done;
    (* No acked write lost: everything any replica ever applied must
       survive in the longest final applied sequence (prefix agreement
       makes that sequence a superset of every other). *)
    let longest =
      List.fold_left
        (fun best i ->
          let c = committed i in
          if List.length c > List.length best then c else best)
        [] (List.init t.n Fun.id)
    in
    Hashtbl.iter
      (fun c () ->
        if not (List.mem c longest) then
          raise
            (Violated
               (fail "no_acked_write_lost"
                  "command %d was applied by some replica but is missing \
                   from the longest final log ([%s])"
                  c
                  (String.concat ";" (List.map string_of_int longest)))))
      acked;
    Harness.Pass
  with
  | outcome -> outcome
  | exception Violated outcome -> outcome

(* --- Generation -------------------------------------------------------- *)

let generate rng =
  let n = min_n + Prob.Rng.int rng (max_n - min_n + 1) in
  let cluster_seed = Prob.Rng.int rng 1_000_000_000 in
  let drop_probability =
    if Prob.Rng.bool rng 0.5 then 0. else Prob.Rng.float rng *. 0.05
  in
  let horizon = 30_000. in
  let kills =
    List.init
      (Prob.Rng.int rng (max_kills / 2))
      (fun _ ->
        let node = Prob.Rng.int rng n in
        let at = 500. +. (Prob.Rng.float rng *. horizon *. 0.6) in
        let back_at =
          if Prob.Rng.bool rng 0.7 then
            Some (at +. 500. +. (Prob.Rng.float rng *. 5000.))
          else None
        in
        { node; at; back_at })
  in
  let ops = List.init (1 + Prob.Rng.int rng 8) (fun i -> i + 1) in
  (* About half the episodes cut one replica off for 1-4 s, starting
     while the writes are still being submitted: a leader cut off that
     way keeps believing it leads. *)
  let partition =
    if Prob.Rng.bool rng 0.5 then
      let isolated = Prob.Rng.int rng n in
      let from =
        submit_start
        +. (Prob.Rng.float rng *. submit_every *. float_of_int (List.length ops))
      in
      Some { isolated; from; until = from +. 1000. +. (Prob.Rng.float rng *. 3000.) }
    else None
  in
  { n; cluster_seed; drop_probability; kills; partition; ops; horizon }

(* --- Size and shrinking ------------------------------------------------- *)

let partitions t = if t.partition = None then 0 else 1

let size t =
  {
    Harness.units = List.length t.kills + partitions t + List.length t.ops;
    weight =
      t.drop_probability
      +. List.fold_left (fun acc k -> acc +. k.at) 0. t.kills
      +. Option.fold ~none:0. ~some:(fun p -> p.until -. p.from) t.partition;
  }

let candidates t =
  let drop_kill =
    List.mapi
      (fun i _ ->
        { t with kills = List.filteri (fun j _ -> j <> i) t.kills })
      t.kills
  in
  let halve_ops =
    if List.length t.ops >= 2 then
      [ { t with ops = List.filteri (fun i _ -> i < List.length t.ops / 2) t.ops } ]
    else []
  in
  let drop_op =
    if t.ops <> [] then
      [ { t with ops = List.filteri (fun i _ -> i < List.length t.ops - 1) t.ops } ]
    else []
  in
  let drop_partition =
    if t.partition = None then [] else [ { t with partition = None } ]
  in
  let undrop =
    if t.drop_probability > 0. then [ { t with drop_probability = 0. } ] else []
  in
  drop_kill @ drop_partition @ halve_ops @ undrop @ drop_op

(* --- JSON codec --------------------------------------------------------- *)

let encode t =
  {
    Repro.scenario =
      Obs.Json.Obj
        ([
           ("n", Obs.Json.Int t.n);
           ("cluster_seed", Obs.Json.Int t.cluster_seed);
           ("drop_probability", Obs.Json.number t.drop_probability);
           ("horizon", Obs.Json.number t.horizon);
         ]
        @ Option.fold ~none:[]
            ~some:(fun p ->
              [
                ( "partition",
                  Obs.Json.Obj
                    [
                      ("node", Obs.Json.Int p.isolated);
                      ("from", Obs.Json.number p.from);
                      ("until", Obs.Json.number p.until);
                    ] );
              ])
            t.partition);
    plan =
      Obs.Json.List
        (List.map
           (fun k ->
             Obs.Json.Obj
               (("node", Obs.Json.Int k.node)
               :: ("at", Obs.Json.number k.at)
               ::
               (match k.back_at with
               | None -> []
               | Some b -> [ ("back_at", Obs.Json.number b) ])))
           t.kills);
    ops = Obs.Json.List (List.map (fun c -> Obs.Json.Int c) t.ops);
  }

let decode { Repro.scenario; plan; ops } =
  let ( let* ) = Result.bind in
  let* n =
    match Obs.Json.member "n" scenario with
    | Some (Obs.Json.Int v) when v >= min_n && v <= max_n -> Ok v
    | _ -> Error (Printf.sprintf "n must be an integer in [%d, %d]" min_n max_n)
  in
  let* cluster_seed =
    match Obs.Json.member "cluster_seed" scenario with
    | Some (Obs.Json.Int v) when v >= 0 -> Ok v
    | _ -> Error "missing non-negative integer cluster_seed"
  in
  let* drop_probability =
    match
      Option.bind (Obs.Json.member "drop_probability" scenario) Obs.Json.to_float
    with
    | Some v when Float.is_finite v && v >= 0. && v <= 0.2 -> Ok v
    | Some _ -> Error "drop_probability must be in [0, 0.2]"
    | None -> Error "missing numeric drop_probability"
  in
  let* horizon =
    match Option.bind (Obs.Json.member "horizon" scenario) Obs.Json.to_float with
    | Some v when Float.is_finite v && v > 0. && v <= max_horizon -> Ok v
    | Some _ -> Error (Printf.sprintf "horizon must be in (0, %g]" max_horizon)
    | None -> Error "missing numeric horizon"
  in
  let* partition =
    match Obs.Json.member "partition" scenario with
    | None -> Ok None
    | Some j -> (
        let time name = Option.bind (Obs.Json.member name j) Obs.Json.to_float in
        match (Obs.Json.member "node" j, time "from", time "until") with
        | Some (Obs.Json.Int isolated), Some from, Some until
          when isolated >= 0 && isolated < n && Float.is_finite from
               && Float.is_finite until && from >= 0. && from <= until
               && until <= horizon ->
            Ok (Some { isolated; from; until })
        | _ ->
            Error
              "partition must be {node in [0, n), from, until} with 0 <= from \
               <= until <= horizon")
  in
  let* kill_list =
    match Obs.Json.to_list plan with
    | Some l when List.length l <= max_kills -> Ok l
    | Some _ -> Error (Printf.sprintf "at most %d kills" max_kills)
    | None -> Error "plan must be a list of kills"
  in
  let* kills =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* node =
          match Obs.Json.member "node" j with
          | Some (Obs.Json.Int v) when v >= 0 && v < n -> Ok v
          | _ -> Error "kill node must be an integer in [0, n)"
        in
        let* at =
          match Option.bind (Obs.Json.member "at" j) Obs.Json.to_float with
          | Some v when Float.is_finite v && v >= 0. && v <= horizon -> Ok v
          | _ -> Error "kill at must be in [0, horizon]"
        in
        let* back_at =
          match Obs.Json.member "back_at" j with
          | None -> Ok None
          | Some v -> (
              match Obs.Json.to_float v with
              | Some b when Float.is_finite b && b >= at -> Ok (Some b)
              | _ -> Error "kill back_at must be a number >= at")
        in
        Ok ({ node; at; back_at } :: acc))
      (Ok []) kill_list
    |> Result.map List.rev
  in
  let* ops =
    match Obs.Json.to_list ops with
    | Some l when List.length l <= max_ops ->
        List.fold_left
          (fun acc j ->
            let* acc = acc in
            match j with
            | Obs.Json.Int c -> Ok (c :: acc)
            | _ -> Error "ops must be integers")
          (Ok []) l
        |> Result.map List.rev
    | Some _ -> Error (Printf.sprintf "at most %d ops" max_ops)
    | None -> Error "ops must be a list"
  in
  Ok { n; cluster_seed; drop_probability; kills; partition; ops; horizon }

let system () =
  {
    Harness.name = system_name;
    generate;
    run;
    candidates;
    size;
    faults = (fun t -> List.length t.kills + partitions t);
    ops = (fun t -> List.length t.ops);
    encode;
    decode;
  }
