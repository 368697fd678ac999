open Pbft_types
module IntSet = Set.Make (Int)

(* Typed run telemetry; [Trace] stays the source of truth for checkers. *)
let m_commits = Obs.Metrics.counter ~family:"protocol" "pbft.commits"
let m_view_changes = Obs.Metrics.counter ~family:"protocol" "pbft.view_changes"
let m_new_views = Obs.Metrics.counter ~family:"protocol" "pbft.new_views"
let m_byz_actions = Obs.Metrics.counter ~family:"protocol" "pbft.byzantine_actions"

type config = {
  id : int;
  n : int;
  q_eq : int;
  q_per : int;
  q_vc : int;
  q_vc_t : int;
}

(* View-change timer: how long a replica waits on a pending request
   before suspecting the primary. *)
let request_timeout = 500.

(* Interval at which Byzantine replicas emit spurious view-change
   votes. *)
let byz_spam_interval = 400.

(* Interval of the execution-progress gossip that drives state
   transfer. *)
let status_interval = 1000.

let default_config ~id ~n =
  let f = (n - 1) / 3 in
  {
    id;
    n;
    q_eq = n - f;
    q_per = n - f;
    q_vc = n - f;
    q_vc_t = f + 1;
  }

(* Per-(view, seq) slot. Votes are tallied per candidate command so a
   Byzantine replica voting for a corrupted command cannot pollute the
   count of the accepted one. *)
type slot = {
  mutable accepted : int option;
  prepares : (int, IntSet.t ref) Hashtbl.t;
  commits : (int, IntSet.t ref) Hashtbl.t;
  mutable sent_commit : bool;
}

let noop_command = -1

type t = {
  config : config;
  engine : Dessim.Engine.t;
  net : msg Dessim.Network.t;
  trace : Dessim.Trace.t;
  mutable view : int;
  mutable in_view_change : bool;
  mutable target_view : int;
  mutable next_seq : int;
  slots : (int * int, slot) Hashtbl.t;
  prepared_certs : (int, prepared_cert) Hashtbl.t;  (* seq -> best cert *)
  committed : (int, int) Hashtbl.t;  (* seq -> command *)
  mutable exec_next : int;
  executed : int Dessim.Vec.t;
  pending : (int, unit) Hashtbl.t;
  executed_set : (int, unit) Hashtbl.t;
  assigned : (int, unit) Hashtbl.t;  (* commands given a seq in the current view *)
  view_change_votes : (int, IntSet.t ref) Hashtbl.t;
  view_change_certs : (int, prepared_cert list ref) Hashtbl.t;
  transfer_claims : (int * int, IntSet.t ref) Hashtbl.t;
      (* (seq, command) -> vouching replicas, for state transfer. *)
  mutable new_view_sent : IntSet.t;  (* views for which we already sent New_view *)
  mutable vc_timer : Dessim.Engine.cancel option;
  mutable status_timer : Dessim.Engine.cancel option;
  mutable byz : bool;
  mutable byz_spam_timer : Dessim.Engine.cancel option;
  mutable down : bool;
}

let id t = t.config.id
let primary_of t v = ((v mod t.config.n) + t.config.n) mod t.config.n
let is_primary t = primary_of t t.view = t.config.id && not t.down
let executed_commands t =
  List.filter (fun c -> c <> noop_command) (Dessim.Vec.to_list t.executed)
let alive t = not t.down

let record t tag detail =
  Dessim.Trace.record t.trace ~time:(Dessim.Engine.now t.engine) ~node:t.config.id
    ~tag ~detail

let corrupted command = command + 1_000_000

let slot_for t ~view ~seq =
  match Hashtbl.find_opt t.slots (view, seq) with
  | Some s -> s
  | None ->
      let s =
        { accepted = None; prepares = Hashtbl.create 4; commits = Hashtbl.create 4;
          sent_commit = false }
      in
      Hashtbl.add t.slots (view, seq) s;
      s

let vote_set table command =
  match Hashtbl.find_opt table command with
  | Some set -> set
  | None ->
      let set = ref IntSet.empty in
      Hashtbl.add table command set;
      set

let add_vote table command replica =
  let set = vote_set table command in
  set := IntSet.add replica !set;
  IntSet.cardinal !set

let cancel_vc_timer t =
  (match t.vc_timer with Some c -> Dessim.Engine.cancel c | None -> ());
  t.vc_timer <- None

(* --- Execution --------------------------------------------------- *)

let rec try_execute t =
  match Hashtbl.find_opt t.committed t.exec_next with
  | None -> ()
  | Some command ->
      if command <> noop_command && not (Hashtbl.mem t.executed_set command) then begin
        Dessim.Vec.push t.executed command;
        Hashtbl.replace t.executed_set command ();
        record t "execute" (Printf.sprintf "seq=%d cmd=%d" t.exec_next command)
      end
      else if command = noop_command then
        record t "execute" (Printf.sprintf "seq=%d noop" t.exec_next);
      Hashtbl.remove t.pending command;
      t.exec_next <- t.exec_next + 1;
      try_execute t

(* --- Normal case -------------------------------------------------- *)

let rec restart_vc_timer t =
  cancel_vc_timer t;
  if Hashtbl.length t.pending > 0 && not t.down then
    t.vc_timer <-
      Some
        (Dessim.Engine.schedule t.engine ~delay:request_timeout (fun () ->
             initiate_view_change t))

and initiate_view_change t =
  if not t.down then begin
    let v' = max t.view t.target_view + 1 in
    join_view_change t v'
  end

and join_view_change t v' =
  if v' > t.target_view || not t.in_view_change then begin
    t.in_view_change <- true;
    t.target_view <- max v' t.target_view;
    let prepared = Hashtbl.fold (fun _ cert acc -> cert :: acc) t.prepared_certs [] in
    record t "view-change" (Printf.sprintf "target=%d" t.target_view);
    Obs.Metrics.incr m_view_changes;
    let message =
      View_change { new_view = t.target_view; replica = t.config.id; prepared }
    in
    Dessim.Network.broadcast t.net ~src:t.config.id message;
    (* Count our own vote and certificates locally. *)
    note_view_change_vote t ~new_view:t.target_view ~replica:t.config.id ~prepared;
    restart_vc_timer t
  end

and note_view_change_vote t ~new_view ~replica ~prepared =
  let votes =
    match Hashtbl.find_opt t.view_change_votes new_view with
    | Some v -> v
    | None ->
        let v = ref IntSet.empty in
        Hashtbl.add t.view_change_votes new_view v;
        v
  in
  votes := IntSet.add replica !votes;
  let certs =
    match Hashtbl.find_opt t.view_change_certs new_view with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add t.view_change_certs new_view c;
        c
  in
  certs := prepared @ !certs;
  check_view_change_progress t new_view

and check_view_change_progress t new_view =
  if new_view > t.view then begin
    let votes =
      match Hashtbl.find_opt t.view_change_votes new_view with
      | Some v -> IntSet.cardinal !v
      | None -> 0
    in
    (* Trigger rule: join once q_vc_t replicas are asking. *)
    if votes >= t.config.q_vc_t && t.target_view < new_view then
      join_view_change t new_view;
    (* New-primary rule: with q_vc votes, install the view. *)
    if
      votes >= t.config.q_vc
      && primary_of t new_view = t.config.id
      && not (IntSet.mem new_view t.new_view_sent)
    then begin
      t.new_view_sent <- IntSet.add new_view t.new_view_sent;
      become_primary t new_view
    end
  end

and become_primary t new_view =
  (* Choose, per sequence number, the highest-view prepared certificate
     among those carried by the view-change quorum; fill gaps with
     no-ops. *)
  let certs =
    match Hashtbl.find_opt t.view_change_certs new_view with Some c -> !c | None -> []
  in
  let best = Hashtbl.create 16 in
  List.iter
    (fun (cert : prepared_cert) ->
      match Hashtbl.find_opt best cert.seq with
      | Some (existing : prepared_cert) when existing.view >= cert.view -> ()
      | Some _ | None -> Hashtbl.replace best cert.seq cert)
    certs;
  let max_seq = Hashtbl.fold (fun seq _ acc -> max seq acc) best 0 in
  let pre_prepares = ref [] in
  for seq = max_seq downto 1 do
    match Hashtbl.find_opt best seq with
    | Some cert -> pre_prepares := (seq, cert.command) :: !pre_prepares
    | None -> pre_prepares := (seq, noop_command) :: !pre_prepares
  done;
  record t "new-view" (Printf.sprintf "view=%d slots=%d" new_view max_seq);
  Obs.Metrics.incr m_new_views;
  Dessim.Network.broadcast t.net ~src:t.config.id
    (New_view { view = new_view; pre_prepares = !pre_prepares });
  enter_view t new_view;
  t.next_seq <- max t.next_seq (max_seq + 1);
  List.iter (fun (seq, command) -> accept_pre_prepare t ~view:new_view ~seq ~command)
    !pre_prepares;
  (* Re-propose pending client commands that did not survive. *)
  Hashtbl.iter (fun command () -> assign_seq t command) (Hashtbl.copy t.pending)

and enter_view t new_view =
  if new_view > t.view then record t "enter-view" (Printf.sprintf "view=%d" new_view);
  t.view <- max t.view new_view;
  t.in_view_change <- false;
  t.target_view <- t.view;
  Hashtbl.reset t.assigned;
  restart_vc_timer t

and assign_seq t command =
  if
    is_primary t && (not t.in_view_change)
    && (not (Hashtbl.mem t.assigned command))
    && (not (Hashtbl.mem t.executed_set command))
  then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Hashtbl.replace t.assigned command ();
    record t "pre-prepare" (Printf.sprintf "seq=%d cmd=%d" seq command);
    if t.byz then begin
      Obs.Metrics.incr m_byz_actions;
      (* Equivocating primary: half the replicas see a corrupted
         command for the same slot. *)
      for dst = 0 to t.config.n - 1 do
        if dst <> t.config.id then begin
          let sent = if dst mod 2 = 0 then command else corrupted command in
          Dessim.Network.send t.net ~src:t.config.id ~dst
            (Pre_prepare { view = t.view; seq; command = sent })
        end
      done
    end
    else
      Dessim.Network.broadcast t.net ~src:t.config.id
        (Pre_prepare { view = t.view; seq; command });
    accept_pre_prepare t ~view:t.view ~seq ~command
  end

(* Accept a pre-prepare (as backup, or the primary's own): record the
   command and count the primary's implicit prepare plus our own. *)
and accept_pre_prepare t ~view ~seq ~command =
  let slot = slot_for t ~view ~seq in
  match slot.accepted with
  | Some existing when existing <> command ->
      (* Equivocation observed; refuse the second command. *)
      record t "equivocation-detected" (Printf.sprintf "seq=%d" seq)
  | Some _ -> ()
  | None ->
      slot.accepted <- Some command;
      ignore (add_vote slot.prepares command (primary_of t view));
      let my_command = if t.byz && not (is_primary t) then corrupted command else command in
      if t.config.id <> primary_of t view then
        Dessim.Network.broadcast t.net ~src:t.config.id
          (Prepare { view; seq; command = my_command; replica = t.config.id });
      ignore (add_vote slot.prepares my_command t.config.id);
      check_prepared t ~view ~seq

and check_prepared t ~view ~seq =
  let slot = slot_for t ~view ~seq in
  match slot.accepted with
  | None -> ()
  | Some command ->
      let votes = IntSet.cardinal !(vote_set slot.prepares command) in
      if votes >= t.config.q_eq && not slot.sent_commit then begin
        slot.sent_commit <- true;
        (* Remember the strongest certificate per sequence number. *)
        (match Hashtbl.find_opt t.prepared_certs seq with
        | Some cert when cert.view >= view -> ()
        | Some _ | None ->
            Hashtbl.replace t.prepared_certs seq { seq; view; command });
        record t "prepared" (Printf.sprintf "view=%d seq=%d cmd=%d" view seq command);
        if t.byz then Obs.Metrics.incr m_byz_actions;
        let my_command = if t.byz then corrupted command else command in
        Dessim.Network.broadcast t.net ~src:t.config.id
          (Commit { view; seq; command = my_command; replica = t.config.id });
        ignore (add_vote slot.commits my_command t.config.id);
        check_committed t ~view ~seq
      end

and check_committed t ~view ~seq =
  let slot = slot_for t ~view ~seq in
  match slot.accepted with
  | None -> ()
  | Some command ->
      let votes = IntSet.cardinal !(vote_set slot.commits command) in
      if votes >= t.config.q_per && not (Hashtbl.mem t.committed seq) then begin
        Hashtbl.replace t.committed seq command;
        record t "commit" (Printf.sprintf "view=%d seq=%d cmd=%d" view seq command);
        Obs.Metrics.incr m_commits;
        try_execute t;
        if Hashtbl.length t.pending = 0 then cancel_vc_timer t else restart_vc_timer t
      end

(* --- State transfer ------------------------------------------------ *)

let handle_status t ~exec_next ~replica =
  (* Answer a lagging peer with the committed entries it is missing
     (bounded batch). *)
  if exec_next < t.exec_next then begin
    let entries = ref [] in
    let upper = min (t.exec_next - 1) (exec_next + 49) in
    for seq = upper downto exec_next do
      match Hashtbl.find_opt t.committed seq with
      | Some command -> entries := (seq, command) :: !entries
      | None -> ()
    done;
    if !entries <> [] then
      Dessim.Network.send t.net ~src:t.config.id ~dst:replica
        (State_transfer { entries = !entries; replica = t.config.id })
  end

let handle_state_transfer t ~entries ~replica =
  List.iter
    (fun (seq, command) ->
      if seq >= t.exec_next && not (Hashtbl.mem t.committed seq) then begin
        let claims =
          match Hashtbl.find_opt t.transfer_claims (seq, command) with
          | Some c -> c
          | None ->
              let c = ref IntSet.empty in
              Hashtbl.add t.transfer_claims (seq, command) c;
              c
        in
        claims := IntSet.add replica !claims;
        (* q_vc_t vouchers guarantee one correct voucher (the
           checkpoint-certificate analogue). *)
        if IntSet.cardinal !claims >= t.config.q_vc_t then begin
          Hashtbl.replace t.committed seq command;
          record t "state-transfer" (Printf.sprintf "seq=%d cmd=%d" seq command);
          try_execute t;
          if Hashtbl.length t.pending = 0 then cancel_vc_timer t
        end
      end)
    entries

let cancel_status_timer t =
  (match t.status_timer with Some c -> Dessim.Engine.cancel c | None -> ());
  t.status_timer <- None

let rec schedule_status t =
  cancel_status_timer t;
  if not t.down then
    t.status_timer <-
      Some
        (Dessim.Engine.schedule t.engine ~delay:status_interval (fun () ->
             if not t.down then begin
               Dessim.Network.broadcast t.net ~src:t.config.id
                 (Status { exec_next = t.exec_next; replica = t.config.id });
               schedule_status t
             end))

(* --- Message dispatch --------------------------------------------- *)

let handle_request t command =
  if not (Hashtbl.mem t.executed_set command) then begin
    if not (Hashtbl.mem t.pending command) then begin
      Hashtbl.replace t.pending command ();
      if t.vc_timer = None then restart_vc_timer t
    end;
    assign_seq t command
  end

let handle_pre_prepare t ~src ~view ~seq ~command =
  if
    (not t.in_view_change) && view = t.view
    && src = primary_of t view
    && src <> t.config.id
  then accept_pre_prepare t ~view ~seq ~command

let handle_prepare t ~view ~seq ~command ~replica =
  if (not t.in_view_change) && view = t.view then begin
    let slot = slot_for t ~view ~seq in
    ignore (add_vote slot.prepares command replica);
    check_prepared t ~view ~seq
  end

let handle_commit t ~view ~seq ~command ~replica =
  if (not t.in_view_change) && view = t.view then begin
    let slot = slot_for t ~view ~seq in
    ignore (add_vote slot.commits command replica);
    check_committed t ~view ~seq
  end

let handle_view_change t ~new_view ~replica ~prepared =
  if new_view > t.view then note_view_change_vote t ~new_view ~replica ~prepared

let handle_new_view t ~src ~view ~pre_prepares =
  if view >= t.view && src = primary_of t view && src <> t.config.id then begin
    enter_view t view;
    List.iter
      (fun (seq, command) -> accept_pre_prepare t ~view ~seq ~command)
      pre_prepares
  end

let handle_message t ~src msg =
  if not t.down then begin
    match msg with
    | Request { command } -> handle_request t command
    | Pre_prepare { view; seq; command } -> handle_pre_prepare t ~src ~view ~seq ~command
    | Prepare { view; seq; command; replica } -> handle_prepare t ~view ~seq ~command ~replica
    | Commit { view; seq; command; replica } -> handle_commit t ~view ~seq ~command ~replica
    | View_change { new_view; replica; prepared } ->
        handle_view_change t ~new_view ~replica ~prepared
    | New_view { view; pre_prepares } -> handle_new_view t ~src ~view ~pre_prepares
    | Status { exec_next; replica } -> handle_status t ~exec_next ~replica
    | State_transfer { entries; replica } -> handle_state_transfer t ~entries ~replica
  end

(* --- Fault control ------------------------------------------------ *)

let cancel_spam_timer t =
  (match t.byz_spam_timer with Some c -> Dessim.Engine.cancel c | None -> ());
  t.byz_spam_timer <- None

let rec schedule_spam t =
  cancel_spam_timer t;
  if t.byz && not t.down then
    t.byz_spam_timer <-
      Some
        (Dessim.Engine.schedule t.engine ~delay:byz_spam_interval (fun () ->
             if t.byz && not t.down then begin
               Obs.Metrics.incr m_byz_actions;
               (* Vote stuffing: lobby for an unnecessary view change. *)
               Dessim.Network.broadcast t.net ~src:t.config.id
                 (View_change
                    { new_view = t.view + 1; replica = t.config.id; prepared = [] });
               schedule_spam t
             end))

let set_byzantine t flag =
  t.byz <- flag;
  if flag then begin
    record t "byzantine" "";
    schedule_spam t
  end
  else cancel_spam_timer t

let set_down t down =
  if down && not t.down then begin
    t.down <- true;
    Dessim.Network.set_down t.net t.config.id true;
    cancel_vc_timer t;
    cancel_spam_timer t;
    cancel_status_timer t;
    record t "crash" ""
  end
  else if (not down) && t.down then begin
    t.down <- false;
    Dessim.Network.set_down t.net t.config.id false;
    record t "restart" "";
    restart_vc_timer t;
    schedule_status t;
    if t.byz then schedule_spam t
  end

let create config ~engine ~net ~trace =
  if config.n <= 0 then invalid_arg "Pbft_node.create: n must be positive";
  List.iter
    (fun (label, q) ->
      if q < 1 || q > config.n then
        invalid_arg (Printf.sprintf "Pbft_node.create: %s out of range" label))
    [ ("q_eq", config.q_eq); ("q_per", config.q_per); ("q_vc", config.q_vc);
      ("q_vc_t", config.q_vc_t) ];
  let t =
    {
      config;
      engine;
      net;
      trace;
      view = 0;
      in_view_change = false;
      target_view = 0;
      next_seq = 1;
      slots = Hashtbl.create 64;
      prepared_certs = Hashtbl.create 64;
      committed = Hashtbl.create 64;
      exec_next = 1;
      executed = Dessim.Vec.create ();
      pending = Hashtbl.create 16;
      executed_set = Hashtbl.create 64;
      assigned = Hashtbl.create 16;
      view_change_votes = Hashtbl.create 8;
      view_change_certs = Hashtbl.create 8;
      transfer_claims = Hashtbl.create 16;
      new_view_sent = IntSet.empty;
      vc_timer = None;
      status_timer = None;
      byz = false;
      byz_spam_timer = None;
      down = false;
    }
  in
  Dessim.Network.set_handler net config.id (fun ~src msg -> handle_message t ~src msg);
  schedule_status t;
  t
