open Raft_types

(* Typed run telemetry; [Trace] stays the source of truth for checkers. *)
let m_elections = Obs.Metrics.counter ~family:"protocol" "raft.elections"
let m_leader_elections = Obs.Metrics.counter ~family:"protocol" "raft.leader_elections"
let m_commits = Obs.Metrics.counter ~family:"protocol" "raft.commits"
let m_step_downs = Obs.Metrics.counter ~family:"protocol" "raft.step_downs"

type config = {
  id : int;
  n : int;
  q_vote : int;
  q_replicate : int;
  timeout_multiplier : float;
  initial_members : int list option;
}

let election_timeout_min = 150.
let election_timeout_max = 300.
let heartbeat_interval = 50.

let default_config ~id ~n =
  {
    id;
    n;
    q_vote = (n / 2) + 1;
    q_replicate = (n / 2) + 1;
    timeout_multiplier = 1.;
    initial_members = None;
  }

type role = Follower | Candidate | Leader

type io = {
  now : unit -> float;
  after : float -> (unit -> unit) -> unit -> unit;
  send : int -> msg -> unit;
}

type t = {
  config : config;
  io : io;
  trace : Dessim.Trace.t option;
  rng : Prob.Rng.t;
  mutable role : role;
  mutable term : int;
  mutable voted_for : int option;
  log : entry Dessim.Vec.t;
  mutable commit_index : int;
  mutable applied_through : int;
      (** Log index up to which entries have been applied. *)
  mutable votes : int list;
  next_index : int array;
  match_index : int array;
  mutable members : int list;
  mutable election_timer : (unit -> unit) option;  (* its cancel *)
  mutable heartbeat_timer : (unit -> unit) option;
  mutable down : bool;
  mutable apply_hook : (entry -> unit) option;
  mutable leader_hint : int option;
  mutable read_round : int;
  read_acked : int array;
      (** Highest read-probe round each peer has echoed in this term. *)
  pending_reads : (int * int * (int option -> unit)) Queue.t;
      (** [(round, read index, callback)], in round order. *)
}

let id t = t.config.id
let set_apply_hook t hook = t.apply_hook <- Some hook
let leader_hint t = if t.role = Leader && not t.down then Some t.config.id else t.leader_hint
let current_term t = t.term
let is_leader t = t.role = Leader && not t.down
let alive t = not t.down
let log_entries t = Dessim.Vec.to_list t.log
let commit_index t = t.commit_index
let members t = t.members

let dynamic t = t.config.initial_members <> None

let is_member t = List.mem t.config.id t.members

let last_log_index t = Dessim.Vec.length t.log

let entry_term t index =
  if index = 0 then 0 else (Dessim.Vec.get t.log (index - 1)).term

let last_log_term t = entry_term t (last_log_index t)

(* Quorum sizes: configured in static mode, membership majorities in
   dynamic mode. *)
let quorum_vote t =
  if dynamic t then (List.length t.members / 2) + 1 else t.config.q_vote

let quorum_replicate t =
  if dynamic t then (List.length t.members / 2) + 1 else t.config.q_replicate

(* Without a trace the detail is never formatted. *)
let record t tag fmt =
  match t.trace with
  | None -> Printf.ikfprintf ignore () fmt
  | Some trace ->
      Printf.ksprintf
        (fun detail ->
          Dessim.Trace.record trace ~time:(t.io.now ())
            ~node:t.config.id ~tag ~detail)
        fmt

let cancel_election_timer t =
  Option.iter (fun cancel -> cancel ()) t.election_timer;
  t.election_timer <- None

let cancel_heartbeat_timer t =
  Option.iter (fun cancel -> cancel ()) t.heartbeat_timer;
  t.heartbeat_timer <- None

(* Membership is defined by the last Config entry in the log (appended,
   not necessarily committed), falling back to the initial set. *)
let recompute_members t =
  if dynamic t then begin
    let fallback = Option.value t.config.initial_members ~default:[] in
    let rec scan i =
      if i < 1 then fallback
      else begin
        match (Dessim.Vec.get t.log (i - 1)).command with
        | Config members -> members
        | Data _ -> scan (i - 1)
      end
    in
    let fresh = List.sort_uniq compare (scan (last_log_index t)) in
    if fresh <> t.members then begin
      t.members <- fresh;
      record t "membership" "%s"
        (String.concat "," (List.map string_of_int fresh))
    end
  end

(* Apply entries the commit index has passed. *)
let apply_committed t =
  while t.applied_through < t.commit_index do
    let index = t.applied_through + 1 in
    let entry = Dessim.Vec.get t.log (index - 1) in
    (match entry.command with
    | Data command ->
        record t "apply" "index=%d cmd=%d term=%d" index command entry.term
    | Config _ ->
        record t "apply-config" "index=%d term=%d" index entry.term);
    t.applied_through <- index;
    match t.apply_hook with None -> () | Some hook -> hook entry
  done

let rec reset_election_timer t =
  cancel_election_timer t;
  if is_member t then begin
    let base =
      election_timeout_min
      +. (Prob.Rng.float t.rng *. (election_timeout_max -. election_timeout_min))
    in
    let timeout = base *. t.config.timeout_multiplier in
    t.election_timer <- Some (t.io.after timeout (fun () -> on_election_timeout t))
  end

and on_election_timeout t =
  if (not t.down) && t.role <> Leader && is_member t then start_election t
  else if not t.down then reset_election_timer t

and start_election t =
  t.term <- t.term + 1;
  t.role <- Candidate;
  t.voted_for <- Some t.config.id;
  t.votes <- [ t.config.id ];
  t.leader_hint <- None;
  record t "candidate" "term=%d" t.term;
  Obs.Metrics.incr m_elections;
  (* Every universe id, members or not, in id order. *)
  for peer = 0 to t.config.n - 1 do
    if peer <> t.config.id then
      t.io.send peer
        (Request_vote
           {
             term = t.term;
             candidate_id = t.config.id;
             last_log_index = last_log_index t;
             last_log_term = last_log_term t;
           })
  done;
  reset_election_timer t;
  maybe_win_election t

and maybe_win_election t =
  (* Only members' votes count toward the quorum. *)
  let counted =
    if dynamic t then List.filter (fun v -> List.mem v t.members) t.votes else t.votes
  in
  if t.role = Candidate && List.length counted >= quorum_vote t then become_leader t

and become_leader t =
  t.role <- Leader;
  record t "become-leader" "term=%d" t.term;
  Obs.Metrics.incr m_leader_elections;
  cancel_election_timer t;
  Array.fill t.next_index 0 t.config.n (last_log_index t + 1);
  Array.fill t.match_index 0 t.config.n 0;
  t.match_index.(t.config.id) <- last_log_index t;
  Array.fill t.read_acked 0 t.config.n 0;
  maybe_advance_commit t;
  send_heartbeats t;
  schedule_heartbeat t

and schedule_heartbeat t =
  cancel_heartbeat_timer t;
  t.heartbeat_timer <-
    Some
      (t.io.after heartbeat_interval (fun () ->
           if is_leader t then begin
             send_heartbeats t;
             schedule_heartbeat t
           end))

and send_heartbeats t =
  List.iter
    (fun peer -> if peer <> t.config.id then send_append_entries t peer)
    t.members

and send_append_entries t peer =
  let next = t.next_index.(peer) in
  let prev_log_index = next - 1 in
  let entries = ref [] in
  for i = last_log_index t downto next do
    entries := Dessim.Vec.get t.log (i - 1) :: !entries
  done;
  t.io.send peer
    (Append_entries
       {
         term = t.term;
         leader_id = t.config.id;
         prev_log_index;
         prev_log_term = entry_term t prev_log_index;
         entries = !entries;
         leader_commit = t.commit_index;
       })

and maybe_advance_commit t =
  (* Largest index replicated on a replication quorum of members whose
     entry is from the current term (Raft's commitment rule, Fig. 8). *)
  let advanced = ref false in
  for index = t.commit_index + 1 to last_log_index t do
    if entry_term t index = t.term then begin
      let replicas = ref 0 in
      List.iter (fun m -> if t.match_index.(m) >= index then incr replicas) t.members;
      if !replicas >= quorum_replicate t then begin
        t.commit_index <- index;
        advanced := true
      end
    end
  done;
  if !advanced then begin
    record t "commit" "index=%d term=%d" t.commit_index t.term;
    Obs.Metrics.incr m_commits;
    apply_committed t
  end

(* Read-index (Raft dissertation, §6.4). A read registered at round
   [r] is released with the commit index it saw once the leader and the
   members that echoed round [r] or a later one make a replication
   quorum: every echo left its member after the read arrived, so no
   other leader had been elected by then. Rounds grow in registration
   order, so the released reads are always a prefix of the queue. *)
let release_reads t =
  let confirmed round =
    1
    + List.length
        (List.filter
           (fun m -> m <> t.config.id && t.read_acked.(m) >= round)
           t.members)
    >= quorum_replicate t
  in
  let rec go () =
    match Queue.peek_opt t.pending_reads with
    | Some (round, index, k) when confirmed round ->
        ignore (Queue.pop t.pending_reads);
        k (Some index);
        go ()
    | _ -> ()
  in
  go ()

(* A deposed or crashed leader can confirm nothing it has pending. *)
let fail_reads t =
  let pending = List.of_seq (Queue.to_seq t.pending_reads) in
  Queue.clear t.pending_reads;
  List.iter (fun (_, _, k) -> k None) pending

let step_down t new_term =
  if new_term > t.term then begin
    t.term <- new_term;
    t.voted_for <- None
  end;
  if t.role <> Follower then begin
    record t "step-down" "term=%d" t.term;
    Obs.Metrics.incr m_step_downs
  end;
  t.role <- Follower;
  cancel_heartbeat_timer t;
  reset_election_timer t;
  fail_reads t

let candidate_log_up_to_date t ~last_log_index:cand_index ~last_log_term:cand_term =
  cand_term > last_log_term t
  || (cand_term = last_log_term t && cand_index >= last_log_index t)

let handle_request_vote t ~term ~candidate_id ~last_log_index:cli ~last_log_term:clt =
  if term > t.term then step_down t term;
  let granted =
    term = t.term
    && (t.voted_for = None || t.voted_for = Some candidate_id)
    && candidate_log_up_to_date t ~last_log_index:cli ~last_log_term:clt
  in
  if granted then begin
    t.voted_for <- Some candidate_id;
    reset_election_timer t
  end;
  t.io.send candidate_id
    (Request_vote_reply { term = t.term; voter_id = t.config.id; granted })

let handle_request_vote_reply t ~term ~voter_id ~granted =
  if term > t.term then step_down t term
  else if granted && t.role = Candidate && term = t.term then begin
    if not (List.mem voter_id t.votes) then t.votes <- voter_id :: t.votes;
    maybe_win_election t
  end

let truncate_from t index =
  (* Drop entries at [index] and beyond (1-based). *)
  Dessim.Vec.truncate t.log (index - 1);
  recompute_members t

let accepts_append t ~term ~prev_log_index ~prev_log_term =
  term >= t.term
  && prev_log_index <= last_log_index t
  && entry_term t prev_log_index = prev_log_term

let handle_append_entries t ~term ~leader_id ~prev_log_index ~prev_log_term ~entries
    ~leader_commit =
  let accepted = accepts_append t ~term ~prev_log_index ~prev_log_term in
  if term >= t.term then begin
    if term > t.term || t.role <> Follower then step_down t term
    else reset_election_timer t;
    t.leader_hint <- Some leader_id
  end;
  if not accepted then
    t.io.send leader_id
      (Append_entries_reply
         { term = t.term; follower_id = t.config.id; success = false; match_index = 0 })
  else begin
    (* Append, resolving conflicts in favour of the leader. *)
    let membership_touched = ref false in
    List.iter
      (fun (entry : entry) ->
        let is_config = match entry.command with Config _ -> true | Data _ -> false in
        if entry.index <= last_log_index t then begin
          if entry_term t entry.index <> entry.term then begin
            truncate_from t entry.index;
            Dessim.Vec.push t.log entry;
            if is_config then membership_touched := true
          end
        end
        else begin
          Dessim.Vec.push t.log entry;
          if is_config then membership_touched := true
        end)
      entries;
    if !membership_touched then begin
      recompute_members t;
      (* Becoming a member arms the election timer; leaving disarms. *)
      reset_election_timer t
    end;
    let match_index = prev_log_index + List.length entries in
    if leader_commit > t.commit_index then begin
      t.commit_index <- min leader_commit (last_log_index t);
      apply_committed t
    end;
    t.io.send leader_id
      (Append_entries_reply
         { term = t.term; follower_id = t.config.id; success = true; match_index })
  end

let handle_append_entries_reply t ~term ~follower_id ~success ~match_index =
  if term > t.term then step_down t term
  else if t.role = Leader && term = t.term then begin
    (* No follower holds more than this leader has sent it. *)
    if success && match_index <= last_log_index t then begin
      t.match_index.(follower_id) <- max t.match_index.(follower_id) match_index;
      t.next_index.(follower_id) <- t.match_index.(follower_id) + 1;
      maybe_advance_commit t
    end
    else if not success then begin
      t.next_index.(follower_id) <- max 1 (t.next_index.(follower_id) - 1);
      send_append_entries t follower_id
    end
  end

(* A probe from a current or newer term is a heartbeat; every probe is
   echoed with this node's term, so a stale leader learns it was
   deposed. *)
let handle_read_probe t ~term ~leader_id ~round =
  if term >= t.term then begin
    if term > t.term || t.role <> Follower then step_down t term
    else reset_election_timer t;
    t.leader_hint <- Some leader_id
  end;
  t.io.send leader_id
    (Read_probe_reply { term = t.term; follower_id = t.config.id; round })

let handle_read_probe_reply t ~term ~follower_id ~round =
  if term > t.term then step_down t term
  else if
    t.role = Leader && term = t.term && follower_id >= 0 && follower_id < t.config.n
  then begin
    if round > t.read_acked.(follower_id) then t.read_acked.(follower_id) <- round;
    release_reads t
  end

let handle_timeout_now t ~term =
  (* Campaign immediately, skipping the randomized wait. *)
  if term >= t.term && t.role <> Leader && is_member t then start_election t

let handle_message t msg =
  if not t.down then begin
    match msg with
    | Request_vote { term; candidate_id; last_log_index; last_log_term } ->
        handle_request_vote t ~term ~candidate_id ~last_log_index ~last_log_term
    | Request_vote_reply { term; voter_id; granted } ->
        handle_request_vote_reply t ~term ~voter_id ~granted
    | Append_entries { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }
      ->
        handle_append_entries t ~term ~leader_id ~prev_log_index ~prev_log_term ~entries
          ~leader_commit
    | Append_entries_reply { term; follower_id; success; match_index } ->
        handle_append_entries_reply t ~term ~follower_id ~success ~match_index
    | Timeout_now { term } -> handle_timeout_now t ~term
    | Read_probe { term; leader_id; round } ->
        handle_read_probe t ~term ~leader_id ~round
    | Read_probe_reply { term; follower_id; round } ->
        handle_read_probe_reply t ~term ~follower_id ~round
  end

let append_as_leader t command =
  let entry = { term = t.term; index = last_log_index t + 1; command } in
  Dessim.Vec.push t.log entry;
  t.match_index.(t.config.id) <- entry.index;
  maybe_advance_commit t;
  send_heartbeats t;
  entry

let submit t command =
  if not (is_leader t) then false
  else begin
    let entry = append_as_leader t (Data command) in
    record t "propose" "index=%d cmd=%d" entry.index command;
    true
  end

let read_index t k =
  if not (is_leader t) || entry_term t t.commit_index <> t.term then false
  else begin
    t.read_round <- t.read_round + 1;
    let round = t.read_round in
    Queue.push (round, t.commit_index, k) t.pending_reads;
    List.iter
      (fun peer ->
        if peer <> t.config.id then
          t.io.send peer (Read_probe { term = t.term; leader_id = t.config.id; round }))
      t.members;
    release_reads t;
    true
  end

let transfer_leadership t target =
  if
    is_leader t && target <> t.config.id
    && List.mem target t.members
    && t.match_index.(target) = last_log_index t
  then begin
    record t "transfer-leadership" "to=%d" target;
    t.io.send target (Timeout_now { term = t.term });
    true
  end
  else false

let valid_config_change t proposal =
  let proposal = List.sort_uniq compare proposal in
  let current = t.members in
  let added = List.filter (fun u -> not (List.mem u current)) proposal in
  let removed = List.filter (fun u -> not (List.mem u proposal)) current in
  proposal <> []
  && List.mem t.config.id proposal
  && List.for_all (fun u -> u >= 0 && u < t.config.n) proposal
  && List.length added + List.length removed <= 1

let submit_config t proposal =
  if not (is_leader t && dynamic t) then false
  else if not (valid_config_change t proposal) then false
  else begin
    let proposal = List.sort_uniq compare proposal in
    let entry = append_as_leader t (Config proposal) in
    record t "propose-config" "index=%d {%s}" entry.index
      (String.concat "," (List.map string_of_int proposal));
    recompute_members t;
    (* Start replicating to a newly added member right away. *)
    send_heartbeats t;
    maybe_advance_commit t;
    true
  end

let hard_state t = (t.term, t.voted_for)
let last_index = last_log_index
let term_at = entry_term

let entries_from t index =
  List.init (max 0 (last_log_index t - index + 1)) (fun i ->
      Dessim.Vec.get t.log (index - 1 + i))

let restore t ~term ~voted_for ~log =
  if last_log_index t > 0 || t.term > 0 then
    invalid_arg "Raft_node.restore: node has already made progress";
  t.term <- max 0 term;
  t.voted_for <- voted_for;
  List.iter (fun (entry : entry) -> Dessim.Vec.push t.log entry) log;
  recompute_members t;
  reset_election_timer t

let set_down t down =
  if down && not t.down then begin
    t.down <- true;
    cancel_election_timer t;
    cancel_heartbeat_timer t;
    fail_reads t;
    record t "crash" ""
  end
  else if (not down) && t.down then begin
    t.down <- false;
    t.role <- Follower;
    t.votes <- [];
    record t "restart" "";
    reset_election_timer t
  end

let create ?trace config ~rng ~io =
  if config.n <= 0 then invalid_arg "Raft_node.create: n must be positive";
  if config.q_vote < 1 || config.q_vote > config.n then
    invalid_arg "Raft_node.create: q_vote out of range";
  if config.q_replicate < 1 || config.q_replicate > config.n then
    invalid_arg "Raft_node.create: q_replicate out of range";
  (match config.initial_members with
  | Some members ->
      if List.exists (fun u -> u < 0 || u >= config.n) members then
        invalid_arg "Raft_node.create: initial member outside the universe"
  | None -> ());
  let members =
    match config.initial_members with
    | Some members -> List.sort_uniq compare members
    | None -> List.init config.n Fun.id
  in
  let t =
    {
      config;
      io;
      trace;
      rng;
      role = Follower;
      term = 0;
      voted_for = None;
      log = Dessim.Vec.create ();
      commit_index = 0;
      applied_through = 0;
      votes = [];
      next_index = Array.make config.n 1;
      match_index = Array.make config.n 0;
      members;
      election_timer = None;
      heartbeat_timer = None;
      down = false;
      apply_hook = None;
      leader_hint = None;
      read_round = 0;
      read_acked = Array.make config.n 0;
      pending_reads = Queue.create ();
    }
  in
  reset_election_timer t;
  t
