open Benor_types
module IntMap = Map.Make (Int)

(* Typed run telemetry; [Trace] stays the source of truth for checkers. *)
let m_decisions = Obs.Metrics.counter ~family:"protocol" "benor.decisions"
let m_rounds = Obs.Metrics.counter ~family:"protocol" "benor.rounds"

type config = { id : int; n : int; f : int; common_coin : int option }

let default_config ~id ~n =
  if n < 1 then invalid_arg "Benor_node.default_config: n must be positive";
  { id; n; f = (n - 1) / 2; common_coin = None }

(* Safety valve for the simulator. *)
let max_rounds = 1000

type phase = Reporting | Proposing

(* Per-round tallies; one slot per sender prevents double counting. *)
type round_state = {
  reports : int option array;
  proposals : int option option array;
}

type t = {
  config : config;
  engine : Dessim.Engine.t;
  net : msg Dessim.Network.t;
  trace : Dessim.Trace.t;
  rng : Prob.Rng.t;
  mutable value : int;
  mutable round : int;
  mutable phase : phase;
  mutable rounds : round_state IntMap.t;
  mutable decision : int option;
  mutable decided_round : int option;
  mutable announced : bool;
  mutable down : bool;
}

let decision t = t.decision
let decided_round t = t.decided_round

let record t tag detail =
  Dessim.Trace.record t.trace ~time:(Dessim.Engine.now t.engine) ~node:t.config.id
    ~tag ~detail

let round_state t round =
  match IntMap.find_opt round t.rounds with
  | Some rs -> rs
  | None ->
      let rs =
        {
          reports = Array.make t.config.n None;
          proposals = Array.make t.config.n None;
        }
      in
      t.rounds <- IntMap.add round rs t.rounds;
      rs

let count_some a = Array.fold_left (fun acc x -> if x <> None then acc + 1 else acc) 0 a

let broadcast_with_self t msg =
  (* Deliver to self synchronously: a node always hears itself. *)
  Dessim.Network.broadcast t.net ~src:t.config.id msg;
  msg

let rec start_report_phase t =
  if t.decision = None && t.round <= max_rounds then begin
    t.phase <- Reporting;
    let msg = Report { round = t.round; value = t.value; from = t.config.id } in
    ignore (broadcast_with_self t msg);
    note_report t ~round:t.round ~value:t.value ~from:t.config.id
  end

and note_report t ~round ~value ~from =
  let rs = round_state t round in
  if rs.reports.(from) = None then begin
    rs.reports.(from) <- Some value;
    try_advance t
  end

and note_proposal t ~round ~value ~from =
  let rs = round_state t round in
  if rs.proposals.(from) = None then begin
    rs.proposals.(from) <- Some value;
    try_advance t
  end

and try_advance t =
  if t.decision = None then begin
    let needed = t.config.n - t.config.f in
    let rs = round_state t t.round in
    match t.phase with
    | Reporting ->
        if count_some rs.reports >= needed then begin
          (* Strict majority of the WHOLE cluster reporting v lets us
             carry v: two nodes can then never carry conflicting
             values. *)
          let counts = [| 0; 0 |] in
          Array.iter
            (function Some v when v = 0 || v = 1 -> counts.(v) <- counts.(v) + 1 | _ -> ())
            rs.reports;
          let carried =
            if 2 * counts.(0) > t.config.n then Some 0
            else if 2 * counts.(1) > t.config.n then Some 1
            else None
          in
          t.phase <- Proposing;
          ignore
            (broadcast_with_self t
               (Proposal { round = t.round; value = carried; from = t.config.id }));
          note_proposal t ~round:t.round ~value:carried ~from:t.config.id
        end
    | Proposing ->
        if count_some rs.proposals >= needed then begin
          let supports = [| 0; 0 |] in
          Array.iter
            (function
              | Some (Some v) when v = 0 || v = 1 -> supports.(v) <- supports.(v) + 1
              | _ -> ())
            rs.proposals;
          let decide v =
            t.decision <- Some v;
            t.decided_round <- Some t.round;
            record t "decide" (Printf.sprintf "round=%d value=%d" t.round v);
            Obs.Metrics.incr m_decisions;
            if not t.announced then begin
              t.announced <- true;
              Dessim.Network.broadcast t.net ~src:t.config.id (Decided { value = v })
            end
          in
          let threshold = t.config.f + 1 in
          if supports.(0) >= threshold then decide 0
          else if supports.(1) >= threshold then decide 1
          else begin
            let coin () =
              match t.config.common_coin with
              | Some seed ->
                  (* Shared per-round coin: identical at every node. *)
                  let stream = Prob.Rng.create ((seed * 1_000_003) + t.round) in
                  if Prob.Rng.bool stream 0.5 then 1 else 0
              | None -> if Prob.Rng.bool t.rng 0.5 then 1 else 0
            in
            if supports.(0) >= 1 then t.value <- 0
            else if supports.(1) >= 1 then t.value <- 1
            else t.value <- coin ();
            t.round <- t.round + 1;
            Obs.Metrics.incr m_rounds;
            start_report_phase t
          end
        end
  end

let handle_message t ~src:_ msg =
  if not t.down then begin
    match msg with
    | Report { round; value; from } ->
        if t.decision = None && round >= t.round then note_report t ~round ~value ~from
    | Proposal { round; value; from } ->
        if t.decision = None && round >= t.round then note_proposal t ~round ~value ~from
    | Decided { value } ->
        if t.decision = None then begin
          t.decision <- Some value;
          t.decided_round <- Some t.round;
          record t "decide" (Printf.sprintf "round=%d value=%d adopted" t.round value);
          Obs.Metrics.incr m_decisions;
          if not t.announced then begin
            t.announced <- true;
            Dessim.Network.broadcast t.net ~src:t.config.id (Decided { value })
          end
        end
  end

let set_down t down =
  t.down <- down;
  Dessim.Network.set_down t.net t.config.id down;
  if down then record t "crash" ""

let create config ~engine ~net ~trace ~initial =
  if 2 * config.f >= config.n then
    invalid_arg "Benor_node.create: requires 2f < n";
  if initial <> 0 && initial <> 1 then
    invalid_arg "Benor_node.create: initial value must be 0 or 1";
  let t =
    {
      config;
      engine;
      net;
      trace;
      rng = Prob.Rng.split (Dessim.Engine.rng engine);
      value = initial;
      round = 1;
      phase = Reporting;
      rounds = IntMap.empty;
      decision = None;
      decided_round = None;
      announced = false;
      down = false;
    }
  in
  Dessim.Network.set_handler net config.id (fun ~src msg -> handle_message t ~src msg);
  (* Kick off round 1 once the event loop starts, so all nodes begin
     under simulation control. *)
  ignore (Dessim.Engine.schedule engine ~delay:0. (fun () ->
      if not t.down then start_report_phase t));
  t
