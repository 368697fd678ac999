open Rabia_types

(* Typed run telemetry; [Trace] stays the source of truth for checkers. *)
let m_commits = Obs.Metrics.counter ~family:"protocol" "rabia.commits"
let m_null_commits = Obs.Metrics.counter ~family:"protocol" "rabia.null_commits"
let m_decisions = Obs.Metrics.counter ~family:"protocol" "rabia.decisions"

type config = { id : int; n : int }

let default_config ~id ~n =
  if n < 1 then invalid_arg "Rabia_node.default_config: n must be positive";
  { id; n }

(* Safety valve on the binary-agreement rounds of one slot. *)
let max_rounds_per_slot = 200

(* Cadence at which a node re-sends its contributions for the slot it
   is stuck on. *)
let retry_interval = 750.

let null_command = -1

type phase = Proposing | Reporting | Voting | Settled

type slot_state = {
  proposals : int option array;  (* per sender *)
  mutable proposal_sent : bool;
  mutable candidate : int option;
  mutable phase : phase;
  mutable round : int;
  mutable my_value : int;
  reports : (int, int option array) Hashtbl.t;  (* round -> per-sender value *)
  votes : (int, int option option array) Hashtbl.t;  (* round -> per-sender vote *)
}

type t = {
  config : config;
  engine : Dessim.Engine.t;
  net : msg Dessim.Network.t;
  trace : Dessim.Trace.t;
  pending : int Queue.t;
  pending_set : (int, unit) Hashtbl.t;
  committed_set : (int, unit) Hashtbl.t;
  log : int Dessim.Vec.t;
  mutable slot : int;
  slots : (int, slot_state) Hashtbl.t;
  decisions : (int, int * int option) Hashtbl.t;  (* slot -> (value, command) *)
  announced : (int, unit) Hashtbl.t;  (* slots whose complete decision we broadcast *)
  announced_partial : (int, unit) Hashtbl.t;
      (* slots whose command-less decision we broadcast, so a candidate
         holder can complete it *)
  mutable max_seen_slot : int;  (* highest slot any message mentioned *)
  mutable down : bool;
}

let committed t = Dessim.Vec.to_list t.log
let alive t = not t.down

(* Crashes tolerated: the largest [f < n/2]. *)
let f t = (t.config.n - 1) / 2

let record t tag detail =
  Dessim.Trace.record t.trace ~time:(Dessim.Engine.now t.engine) ~node:t.config.id
    ~tag ~detail

let slot_state t slot =
  match Hashtbl.find_opt t.slots slot with
  | Some s -> s
  | None ->
      let s =
        {
          proposals = Array.make t.config.n None;
          proposal_sent = false;
          candidate = None;
          phase = Proposing;
          round = 1;
          my_value = 0;
          reports = Hashtbl.create 4;
          votes = Hashtbl.create 4;
        }
      in
      Hashtbl.add t.slots slot s;
      s

let round_slots table n round =
  match Hashtbl.find_opt table round with
  | Some a -> a
  | None ->
      let a = Array.make n None in
      Hashtbl.add table round a;
      a

let count_filled a =
  Array.fold_left (fun acc x -> if x <> None then acc + 1 else acc) 0 a

let next_proposal t =
  (* Head of the queue, skipping anything already committed. *)
  let rec go () =
    match Queue.peek_opt t.pending with
    | None -> null_command
    | Some cmd ->
        if Hashtbl.mem t.committed_set cmd then begin
          ignore (Queue.pop t.pending);
          Hashtbl.remove t.pending_set cmd;
          go ()
        end
        else cmd
  in
  go ()

(* --- Decision handling --------------------------------------------- *)

let rec note_decision t ~slot ~value ~command =
  let merged =
    match (Hashtbl.find_opt t.decisions slot, command) with
    | Some (v, Some c), _ -> (v, Some c)
    | Some (v, None), Some c -> (v, Some c)
    | Some (v, None), None -> (v, None)
    | None, _ -> (value, command)
  in
  Hashtbl.replace t.decisions slot merged;
  (* A holder of the candidate can complete a command-less decision. *)
  let merged =
    match merged with
    | 1, None -> (
        match (slot_state t slot).candidate with
        | Some c -> (1, Some c)
        | None -> merged)
    | other -> other
  in
  Hashtbl.replace t.decisions slot merged;
  let complete = match merged with 0, _ -> true | _, Some _ -> true | _, None -> false in
  if complete && not (Hashtbl.mem t.announced slot) then begin
    Hashtbl.replace t.announced slot ();
    let value, command = merged in
    Dessim.Network.broadcast t.net ~src:t.config.id
      (Decision { slot; value; command; from = t.config.id })
  end
  else if (not complete) && not (Hashtbl.mem t.announced_partial slot) then begin
    (* Ask the holders: whoever carries the candidate completes this
       and rebroadcasts with the command attached. *)
    Hashtbl.replace t.announced_partial slot ();
    Dessim.Network.broadcast t.net ~src:t.config.id
      (Decision { slot; value = 1; command = None; from = t.config.id })
  end;
  (slot_state t slot).phase <- Settled;
  try_advance_slot t

and try_advance_slot t =
  match Hashtbl.find_opt t.decisions t.slot with
  | Some (0, _) ->
      record t "commit-null" (Printf.sprintf "slot=%d" t.slot);
      Obs.Metrics.incr m_null_commits;
      t.slot <- t.slot + 1;
      try_advance_slot t
  | Some (1, Some c) ->
      if c <> null_command && not (Hashtbl.mem t.committed_set c) then begin
        Hashtbl.replace t.committed_set c ();
        Dessim.Vec.push t.log c;
        record t "commit" (Printf.sprintf "slot=%d cmd=%d" t.slot c);
        Obs.Metrics.incr m_commits
      end
      else if c = null_command then begin
        record t "commit-null" (Printf.sprintf "slot=%d" t.slot);
        Obs.Metrics.incr m_null_commits
      end;
      (* Drop the command from our own queue if we were holding it. *)
      if Hashtbl.mem t.pending_set c then begin
        let keep = Queue.create () in
        Queue.iter (fun x -> if x <> c then Queue.push x keep) t.pending;
        Queue.clear t.pending;
        Queue.transfer keep t.pending;
        Hashtbl.remove t.pending_set c
      end;
      t.slot <- t.slot + 1;
      try_advance_slot t
  | Some (1, None) -> () (* decided but command still unknown: wait *)
  | Some (_, _) | None -> try_start_slot t

(* --- Slot protocol -------------------------------------------------- *)

and try_start_slot t =
  if not t.down then begin
    let slot = t.slot in
    let s = slot_state t slot in
    if s.phase = Proposing && not s.proposal_sent then begin
      let have_work = next_proposal t <> null_command in
      let others_active = count_filled s.proposals > 0 in
      if have_work || others_active then send_proposal t slot
    end
  end

and send_proposal t slot =
  let s = slot_state t slot in
  if not s.proposal_sent then begin
    s.proposal_sent <- true;
    let command = next_proposal t in
    Dessim.Network.broadcast t.net ~src:t.config.id
      (Proposal { slot; command; from = t.config.id });
    note_proposal t ~slot ~command ~from:t.config.id
  end

and note_proposal t ~slot ~command ~from =
  let s = slot_state t slot in
  if s.proposals.(from) = None then begin
    s.proposals.(from) <- Some command;
    (* Participate as soon as the current slot sees traffic. *)
    if slot = t.slot && not s.proposal_sent then send_proposal t slot;
    check_proposals t ~slot
  end

and check_proposals t ~slot =
  let s = slot_state t slot in
  if s.phase = Proposing && s.proposal_sent
     && count_filled s.proposals >= t.config.n - f t
  then begin
    (* Majority command over the WHOLE cluster becomes the candidate. *)
    let tally = Hashtbl.create 8 in
    Array.iter
      (function
        | Some c when c <> null_command ->
            Hashtbl.replace tally c (1 + Option.value (Hashtbl.find_opt tally c) ~default:0)
        | Some _ | None -> ())
      s.proposals;
    Hashtbl.iter
      (fun c count -> if 2 * count > t.config.n then s.candidate <- Some c)
      tally;
    s.my_value <- (if s.candidate <> None then 1 else 0);
    s.phase <- Reporting;
    broadcast_report t ~slot
  end

and broadcast_report t ~slot =
  let s = slot_state t slot in
  if s.round <= max_rounds_per_slot then begin
    Dessim.Network.broadcast t.net ~src:t.config.id
      (Report { slot; round = s.round; value = s.my_value; from = t.config.id });
    note_report t ~slot ~round:s.round ~value:s.my_value ~from:t.config.id
  end

and note_report t ~slot ~round ~value ~from =
  let s = slot_state t slot in
  let a = round_slots s.reports t.config.n round in
  if a.(from) = None then begin
    a.(from) <- Some value;
    check_reports t ~slot
  end

and check_reports t ~slot =
  let s = slot_state t slot in
  if s.phase = Reporting then begin
    let a = round_slots s.reports t.config.n s.round in
    if count_filled a >= t.config.n - f t then begin
      let counts = [| 0; 0 |] in
      Array.iter
        (function Some v when v = 0 || v = 1 -> counts.(v) <- counts.(v) + 1 | _ -> ())
        a;
      let carried =
        if 2 * counts.(1) > t.config.n then Some 1
        else if 2 * counts.(0) > t.config.n then Some 0
        else None
      in
      s.phase <- Voting;
      Dessim.Network.broadcast t.net ~src:t.config.id
        (Vote { slot; round = s.round; value = carried; from = t.config.id });
      note_vote t ~slot ~round:s.round ~value:carried ~from:t.config.id
    end
  end

and note_vote t ~slot ~round ~value ~from =
  let s = slot_state t slot in
  let a = round_slots s.votes t.config.n round in
  if a.(from) = None then begin
    a.(from) <- Some value;
    check_votes t ~slot
  end

and check_votes t ~slot =
  let s = slot_state t slot in
  if s.phase = Voting then begin
    let a = round_slots s.votes t.config.n s.round in
    if count_filled a >= t.config.n - f t then begin
      let supports = [| 0; 0 |] in
      Array.iter
        (function
          | Some (Some v) when v = 0 || v = 1 -> supports.(v) <- supports.(v) + 1
          | _ -> ())
        a;
      let threshold = f t + 1 in
      if supports.(1) >= threshold then begin
        record t "decide" (Printf.sprintf "slot=%d value=1 round=%d" slot s.round);
        Obs.Metrics.incr m_decisions;
        note_decision t ~slot ~value:1 ~command:s.candidate
      end
      else if supports.(0) >= threshold then begin
        record t "decide" (Printf.sprintf "slot=%d value=0 round=%d" slot s.round);
        Obs.Metrics.incr m_decisions;
        note_decision t ~slot ~value:0 ~command:None
      end
      else begin
        (* Null-biased "coin" (as in Rabia): with no guidance, drift
           toward committing the null op. This keeps value 1 rooted in
           a genuine proposal majority — whenever 1 can be decided, a
           strict majority holds the candidate command, so at least one
           correct holder can complete any command-less decision. *)
        if supports.(1) >= 1 then s.my_value <- 1
        else if supports.(0) >= 1 then s.my_value <- 0
        else s.my_value <- 0;
        s.round <- s.round + 1;
        s.phase <- Reporting;
        broadcast_report t ~slot
      end
    end
  end

(* --- Retransmission --------------------------------------------------- *)

(* The phase machinery above is purely message-driven: a node acts only
   when a message arrives. Under a lossy network that is not enough —
   with exactly [n - f] participants alive, one dropped report or vote
   stalls the slot forever, because nobody will ever send anything for
   it again (found by the DST harness; the shrunk case lives in
   test/repro/sim_rabia_stall.json). So each node re-sends its own
   contributions for the slot it is stuck on at a fixed cadence.
   Receivers deduplicate per (round, sender), so retransmission cannot
   change what gets decided — it only makes the decision happen. *)

let resend_current_slot t =
  let slot = t.slot in
  let s = slot_state t slot in
  match Hashtbl.find_opt t.decisions slot with
  | Some (1, None) ->
      (* Decided, command still unknown: re-ask the candidate holders
         (the announce-once guard in [note_decision] only covers the
         first ask, which may have been dropped). *)
      Dessim.Network.broadcast t.net ~src:t.config.id
        (Decision { slot; value = 1; command = None; from = t.config.id })
  | Some _ -> ()
  | None ->
      if s.proposal_sent then begin
        (match s.proposals.(t.config.id) with
        | Some command ->
            Dessim.Network.broadcast t.net ~src:t.config.id
              (Proposal { slot; command; from = t.config.id })
        | None -> ());
        for round = 1 to s.round do
          (match Hashtbl.find_opt s.reports round with
          | Some a -> (
              match a.(t.config.id) with
              | Some value ->
                  Dessim.Network.broadcast t.net ~src:t.config.id
                    (Report { slot; round; value; from = t.config.id })
              | None -> ())
          | None -> ());
          match Hashtbl.find_opt s.votes round with
          | Some a -> (
              match a.(t.config.id) with
              | Some value ->
                  Dessim.Network.broadcast t.net ~src:t.config.id
                    (Vote { slot; round; value; from = t.config.id })
              | None -> ())
          | None -> ()
        done
      end
      else if next_proposal t <> null_command || t.max_seen_slot > t.slot then
        (* Nothing sent yet but there is work — or evidence the cluster
           is ahead of us (crash-restart laggard). A proposal for our
           slot is always safe, and stale-slot traffic prompts peers to
           re-send the decisions we missed. *)
        send_proposal t slot

(* --- API ------------------------------------------------------------- *)

let submit t cmd =
  if cmd = null_command then invalid_arg "Rabia_node.submit: reserved command id";
  if
    (not t.down)
    && (not (Hashtbl.mem t.committed_set cmd))
    && not (Hashtbl.mem t.pending_set cmd)
  then begin
    Queue.push cmd t.pending;
    Hashtbl.replace t.pending_set cmd ();
    try_start_slot t
  end

let handle_message t ~src msg =
  if not t.down then begin
    let seen slot = if slot > t.max_seen_slot then t.max_seen_slot <- slot in
    (* Traffic for a slot we have already finished means the sender
       missed one or more decisions (drops, or a crash-restart): re-send
       everything decided from that slot on, point-to-point, bypassing
       the announce-once guard. *)
    let answer_stale slot =
      for s = slot to t.slot - 1 do
        match Hashtbl.find_opt t.decisions s with
        | Some (value, command) when value = 0 || command <> None ->
            Dessim.Network.send t.net ~src:t.config.id ~dst:src
              (Decision { slot = s; value; command; from = t.config.id })
        | Some _ | None -> ()
      done
    in
    match msg with
    | Proposal { slot; command; from } ->
        seen slot;
        if slot >= t.slot then note_proposal t ~slot ~command ~from
        else answer_stale slot
    | Report { slot; round; value; from } ->
        seen slot;
        if slot >= t.slot then note_report t ~slot ~round ~value ~from
        else answer_stale slot
    | Vote { slot; round; value; from } ->
        seen slot;
        if slot >= t.slot then note_vote t ~slot ~round ~value ~from
        else answer_stale slot
    | Decision { slot; value; command; from = _ } ->
        seen slot;
        if not (Hashtbl.mem t.announced slot) then
          note_decision t ~slot ~value ~command
        else if value = 1 && command = None then
          (* A peer is re-asking for the command behind a decision we
             already announced: our complete announce must have been
             dropped on the way to it — answer directly. (A [0, None]
             decision is complete, not an ask: null slots carry no
             command, so answering one would just echo forever.) *)
          answer_stale slot
  end

let set_down t down =
  t.down <- down;
  Dessim.Network.set_down t.net t.config.id down;
  if down then record t "crash" ""
  else begin
    record t "restart" "";
    try_advance_slot t;
    (* Solicit: a proposal for our slot is always safe, and if the
       cluster has moved on, peers answer stale-slot traffic with the
       decisions we slept through. *)
    if not (slot_state t t.slot).proposal_sent then send_proposal t t.slot
  end

let create config ~engine ~net ~trace =
  let t =
    {
      config;
      engine;
      net;
      trace;
      pending = Queue.create ();
      pending_set = Hashtbl.create 16;
      committed_set = Hashtbl.create 64;
      log = Dessim.Vec.create ();
      slot = 1;
      slots = Hashtbl.create 32;
      decisions = Hashtbl.create 32;
      announced = Hashtbl.create 32;
      announced_partial = Hashtbl.create 8;
      max_seen_slot = 0;
      down = false;
    }
  in
  Dessim.Network.set_handler net config.id (fun ~src msg -> handle_message t ~src msg);
  (* Staggered by id so the resends of a symmetric, fully-stuck
     cluster do not all land in the same engine timestamp. *)
  let rec tick () =
    if not t.down then resend_current_slot t;
    ignore (Dessim.Engine.schedule engine ~delay:retry_interval tick)
  in
  ignore
    (Dessim.Engine.schedule engine
       ~delay:(retry_interval +. float_of_int config.id)
       tick);
  t
