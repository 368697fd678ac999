module Raft_node = Raft_sim.Raft_node
module Raft_types = Raft_sim.Raft_types
module Wire = Service.Wire
module Server = Service.Server

type config = {
  id : int;
  n : int;
  base_port : int;
  service_port : int;
  seed : int;
  state_dir : string option;
  workers : int;
  commit_timeout_seconds : float;
}

let default_config ~id ~n ~base_port ~service_port =
  {
    id;
    n;
    base_port;
    service_port;
    seed = 42;
    state_dir = None;
    workers = 2;
    commit_timeout_seconds = 4.0;
  }

(* Plain-read freshness bound: a plain read is refused once the
   replica's last contact is older than this. A follower's last contact
   is its last message while it knew a leader; a leader's is the latest
   time by which it had heard from enough peers to make a majority with
   itself. *)
let staleness_budget_seconds = 1.0

let raft_port cfg peer = cfg.base_port + peer

type outcome = (Obs.Json.t, Server.reply_error) result

(* One write awaiting its commit, or one linearizable read awaiting its
   read-index confirmation. Only the loop thread answers it: on apply
   or confirmation, when the leader is deposed, past its deadline, or
   when the plane stops. [term] is the leader's term when the waiter
   was made: a write's entry is appended in it. *)
type waiter = { deadline : float; term : int; reply : outcome -> unit }

type status = {
  s_role : string;
  s_term : int;
  s_leader : int option;
  s_commit : int;
  s_last_contact : float;
  s_counts : State.counts;
}

(* Every mutable field without a lock, and [state], belong to the
   server's loop thread. Other threads read only [status], under
   [status_mu], and [server]. *)
type t = {
  cfg : config;
  raft : Raft_node.t;
  timers : (float * (unit -> unit)) list ref;  (* Raft's armed timers, by deadline *)
  state : State.t;
  payloads : (int, string) Hashtbl.t;
  waiters : (int, waiter) Hashtbl.t;  (* writes, by sequence number *)
  reads : (int, waiter) Hashtbl.t;  (* linearizable reads, by read id *)
  mutable next_read : int;
  mutable closed : Server.reply_error option;
      (* Set once the plane has stopped: later submits get it at once. *)
  mutable answers : (waiter * outcome) list;
      (* held until the cycle's fsync, newest first *)
  mutable had_inbound : bool;
  heard : float array;  (* when each peer's last envelope arrived *)
  links : Transport.t;
  durable : Storage.log option;
  persisted_terms : int Dessim.Vec.t;
      (* the term of every entry the segment holds *)
  mutable persisted_hard : int * int option;
  status_mu : Mutex.t;
  mutable status : status;
  server : Server.t option Atomic.t;  (* [None] again once stopped *)
  mutable next_seq : int;
  mutable leader_epoch : bool * int;
}

let read_status t =
  Mutex.lock t.status_mu;
  let s = t.status in
  Mutex.unlock t.status_mu;
  s

let not_leader_error ?(msg = "not the leader") t =
  let hint =
    match (read_status t).s_leader with
    | Some l when l <> t.cfg.id -> Some l
    | _ -> None
  in
  Error { Server.code = Wire.Not_leader; msg; hint }

(* ---- the plane, on the server's loop thread ------------------------ *)

let max_data_seq log =
  List.fold_left
    (fun acc (e : Raft_types.entry) ->
      match e.command with Data s -> max acc s | Config _ -> acc)
    0 log

let refresh_next_seq t =
  let epoch = (Raft_node.is_leader t.raft, Raft_node.current_term t.raft) in
  if epoch <> t.leader_epoch then (
    t.leader_epoch <- epoch;
    (* A fresh leader continues the dense sequence after everything in
       its log; the election restriction guarantees no committed
       sequence number can collide with the new assignments. *)
    if fst epoch then
      t.next_seq <-
        max t.next_seq (1 + max_data_seq (Raft_node.log_entries t.raft)))

let put_reply ~name ~seq ~duplicate =
  Ok
    (Obs.Json.Obj
       (("stored", Obs.Json.Bool true)
       :: ("name", Obs.Json.String name)
       :: ("command_seq", Obs.Json.Int seq)
       :: (if duplicate then [ ("duplicate", Obs.Json.Bool true) ] else [])))

let reply_for_op op ~seq ~duplicate =
  match op with
  | Command.Put_scenario { name; _ } -> put_reply ~name ~seq ~duplicate
  | Command.Barrier ->
      Ok (Obs.Json.Obj [ ("barrier", Obs.Json.Bool true) ])

(* Replies wait for the end of the cycle: none leaves before the bytes
   behind it are durable. *)
let answer t w outcome = t.answers <- (w, outcome) :: t.answers

let on_apply t (entry : Raft_types.entry) =
  match entry.command with
  | Config _ -> ()
  | Data seq -> (
      t.next_seq <- max t.next_seq (seq + 1);
      match Hashtbl.find_opt t.payloads seq with
      | None -> State.note_missing_payload t.state
      | Some bytes -> (
          (match Command.of_string bytes with
          | Error _ -> State.note_missing_payload t.state
          | Ok op ->
              let outcome = State.apply t.state ~seq op ~id:bytes in
              let duplicate = outcome = `Duplicate in
              (* Sequence numbers are reused across terms, but within one
                 term only its leader assigns them, each once: (term,
                 seq) names one command, and an entry of another term
                 at the waiter's seq is not the waiter's. *)
              (match Hashtbl.find_opt t.waiters seq with
              | None -> ()
              | Some w when w.term = entry.term ->
                  answer t w (reply_for_op op ~seq ~duplicate)
              | Some w -> answer t w (not_leader_error t)));
          Hashtbl.remove t.waiters seq))

let handle_submit t op w =
  match t.closed with
  | Some err -> w.reply (Error err)
  | None when not (Raft_node.is_leader t.raft) -> answer t w (not_leader_error t)
  | None -> (
      refresh_next_seq t;
      let bytes = Command.id op in
      match op with
      | Command.Put_scenario { name; _ } when State.seen t.state bytes ->
          (* Already applied: answer from the state machine, no log
             traffic — the idempotency fast path for client retries. *)
          let seq =
            match State.get t.state name with Some e -> e.State.seq | None -> 0
          in
          answer t w (put_reply ~name ~seq ~duplicate:true)
      | _ ->
          let seq = t.next_seq in
          Hashtbl.replace t.payloads seq bytes;
          (* Registered first: a lone replica commits and applies the
             entry inside [submit]. *)
          Hashtbl.replace t.waiters seq w;
          if Raft_node.submit t.raft seq then t.next_seq <- seq + 1
          else (
            Hashtbl.remove t.payloads seq;
            Hashtbl.remove t.waiters seq;
            answer t w (not_leader_error t)))

(* Pending reads need no such sweep: [Raft_node.step_down] fails them
   through their callbacks. *)
let fail_waiters_if_deposed t =
  if not (Raft_node.is_leader t.raft) && Hashtbl.length t.waiters > 0 then (
    let err = not_leader_error t in
    Hashtbl.iter (fun _ w -> answer t w err) t.waiters;
    Hashtbl.reset t.waiters)

let expire_waiters t ~now =
  List.iter
    (fun (table, msg) ->
      Hashtbl.filter_map_inplace
        (fun _ w ->
          if now < w.deadline then Some w
          else (
            answer t w
              (Error { Server.code = Wire.Deadline_exceeded; msg; hint = None });
            None))
        table)
    [ (t.waiters, "commit timed out"); (t.reads, "read not confirmed in time") ]

let payload_of t (entry : Raft_types.entry) =
  match entry.command with
  | Data seq -> Hashtbl.find_opt t.payloads seq
  | Config _ -> None

(* How many entries the segment and the live log agree on: scan back
   from the tail for the last index whose term both hold; by Log
   Matching every earlier entry agrees too. *)
let kept_prefix t =
  let rec common i =
    if
      i = 0
      || Dessim.Vec.get t.persisted_terms (i - 1) = Raft_node.term_at t.raft i
    then i
    else common (i - 1)
  in
  common
    (min (Dessim.Vec.length t.persisted_terms) (Raft_node.last_index t.raft))

(* Append what changed since the previous cycle, in one write and one
   fsync: the hard state if it moved, a [Truncate] where the live log
   left the persisted one, then the new entries. *)
let persist t durable ~hard ~keep =
  let term, voted_for = hard in
  let fresh = Raft_node.entries_from t.raft (keep + 1) in
  Storage.append durable
    ((if hard = t.persisted_hard then []
      else [ Storage.Hard_state { term; voted_for } ])
    @ (if keep = Dessim.Vec.length t.persisted_terms then []
       else [ Storage.Truncate { from = keep + 1 } ])
    @ List.map
        (fun entry -> Storage.Entry { entry; payload = payload_of t entry })
        fresh);
  t.persisted_hard <- hard;
  Dessim.Vec.truncate t.persisted_terms keep;
  List.iter
    (fun (e : Raft_types.entry) -> Dessim.Vec.push t.persisted_terms e.term)
    fresh

(* The latest time by which this replica had heard from enough peers to
   make a majority with itself; always now for a lone replica. *)
let quorum_contact t ~now =
  let need = t.cfg.n / 2 in
  if need = 0 then now
  else begin
    let heard = Array.copy t.heard in
    heard.(t.cfg.id) <- Float.neg_infinity;
    Array.sort (fun a b -> Float.compare b a) heard;
    heard.(need - 1)
  end

let update_status t ~now =
  let is_leader = Raft_node.is_leader t.raft in
  let hint = Raft_node.leader_hint t.raft in
  Mutex.lock t.status_mu;
  let last_contact =
    if is_leader then quorum_contact t ~now
    else if t.had_inbound && hint <> None then now
    else t.status.s_last_contact
  in
  t.had_inbound <- false;
  t.status <-
    {
      s_role = (if is_leader then "leader" else "follower");
      s_term = Raft_node.current_term t.raft;
      s_leader = hint;
      s_commit = Raft_node.commit_index t.raft;
      s_last_contact = last_contact;
      s_counts = State.counts t.state;
    };
  Mutex.unlock t.status_mu

(* Inbound raft traffic: payloads land in the table before the message
   that references them is processed. Sequence numbers are reused across
   terms, so only an AppendEntries Raft accepts may store payloads: the
   bytes of one it rejects, for its term or for a log that does not
   match, would overwrite those of the entry now at that sequence
   number. *)
let deliver t ~src ~dst msg ~payloads =
  if dst = t.cfg.id && src >= 0 && src < t.cfg.n && src <> t.cfg.id then (
    (match msg with
    | Raft_types.Append_entries { term; prev_log_index; prev_log_term; _ }
      when Raft_node.accepts_append t.raft ~term ~prev_log_index ~prev_log_term ->
        List.iter (fun (seq, bytes) -> Hashtbl.replace t.payloads seq bytes) payloads
    | _ -> ());
    t.had_inbound <- true;
    t.heard.(src) <- Unix.gettimeofday ();
    Raft_node.handle_message t.raft msg)

(* Fire the due timers, earliest first. One that fires may cancel
   another, or arm one that is due in a later cycle. *)
let rec fire_timers t ~now =
  match
    List.sort (fun (a, _) (b, _) -> Float.compare a b)
      (List.filter (fun (due, _) -> due <= now) !(t.timers))
  with
  | [] -> ()
  | ((_, fire) as first) :: _ ->
      t.timers := List.filter (( != ) first) !(t.timers);
      fire ();
      fire_timers t ~now

let cycle t =
  (* 1. Client submissions went onto the log as the loop read them, and
     inbound messages went to Raft as they were decoded. Fire Raft's
     due timers, then settle the waiters whose leader was deposed or
     whose deadline passed. *)
  let now = Unix.gettimeofday () in
  fire_timers t ~now;
  fail_waiters_if_deposed t;
  expire_waiters t ~now;
  (* 2. Persist dirty raft state BEFORE any acknowledgement leaves:
     neither a client reply, nor a vote, nor a raft message
     acknowledging an append gets ahead of the log bytes it promises. *)
  (match t.durable with
  | None -> ()
  | Some durable ->
      let hard = Raft_node.hard_state t.raft in
      let keep = kept_prefix t in
      (* Replicate while syncing (Raft dissertation, §10.2.1): a leader
         whose term and vote are already durable, and whose log only
         grows, sends its frames before its own fsync, so the
         followers' fsyncs overlap it. Those frames promise nothing: a
         leader's AppendEntries acknowledge nothing, and followers still
         fsync before they ack. The leader counts its own copy of an
         entry only when it processes a follower's ack, in a later
         cycle, after this fsync has returned; a lone replica commits
         inside its submit, but the reply below still waits for the
         fsync. A replica whose term or vote moved writes nothing
         early. *)
      if
        Raft_node.is_leader t.raft
        && hard = t.persisted_hard
        && keep = Dessim.Vec.length t.persisted_terms
      then Transport.flush t.links;
      persist t durable ~hard ~keep);
  (* 3. Answer, then write the frames queued during the cycle. *)
  let answers = List.rev t.answers in
  t.answers <- [];
  List.iter (fun (w, outcome) -> w.reply outcome) answers;
  Transport.flush t.links;
  update_status t ~now

(* How long the loop may sleep: until Raft's next timer is due or the
   earliest commit deadline passes; 0 when one of them already has. *)
let timeout t =
  let timer =
    List.fold_left (fun acc (due, _) -> Float.min acc due) Float.infinity !(t.timers)
  in
  let due =
    List.fold_left
      (fun acc table ->
        Hashtbl.fold (fun _ w acc -> Float.min acc w.deadline) table acc)
      timer [ t.waiters; t.reads ]
  in
  if Float.is_finite due then Float.max 0. (due -. Unix.gettimeofday ())
  else -1.

(* Answer every held and waiting write, and every later one, with
   [err]: once the plane has stopped nothing else would. A held answer
   never reached its fsync, so it gets [err] too. *)
let close_plane t err =
  t.closed <- Some err;
  List.iter (fun (w, _) -> w.reply (Error err)) (List.rev t.answers);
  t.answers <- [];
  List.iter
    (fun table ->
      Hashtbl.iter (fun _ w -> w.reply (Error err)) table;
      Hashtbl.reset table)
    [ t.waiters; t.reads ]

let waiter t reply =
  {
    deadline = Unix.gettimeofday () +. t.cfg.commit_timeout_seconds;
    term = Raft_node.current_term t.raft;
    reply;
  }

let submit t op ~reply = handle_submit t op (waiter t reply)

let staleness_ms s =
  Float.max 0. ((Unix.gettimeofday () -. s.s_last_contact) *. 1000.)

let read_reply t name ~staleness =
  match State.get t.state name with
  | Some e ->
      let scenario_json =
        match Obs.Json.of_string e.State.scenario with
        | Ok j -> j
        | Error _ -> Obs.Json.Null
      in
      Ok
        (Obs.Json.Obj
           [
             ("found", Obs.Json.Bool true);
             ("name", Obs.Json.String name);
             ("scenario", scenario_json);
             ("nonce", Obs.Json.Int e.State.nonce);
             ("command_seq", Obs.Json.Int e.State.seq);
             ("staleness_ms", Obs.Json.number staleness);
           ])
  | None ->
      Ok
        (Obs.Json.Obj
           [
             ("found", Obs.Json.Bool false);
             ("name", Obs.Json.String name);
             ("staleness_ms", Obs.Json.number staleness);
           ])

let status_json t =
  let s = read_status t in
  let c = s.s_counts in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "probcons-replica-status/1");
      ("id", Obs.Json.Int t.cfg.id);
      ("n", Obs.Json.Int t.cfg.n);
      ("role", Obs.Json.String s.s_role);
      ("term", Obs.Json.Int s.s_term);
      ( "leader_hint",
        match s.s_leader with
        | None -> Obs.Json.Null
        | Some l -> Obs.Json.Int l );
      ("commit_index", Obs.Json.Int s.s_commit);
      ("applied", Obs.Json.Int c.State.applied);
      ("store_size", Obs.Json.Int c.State.store_size);
      ("dedup_skips", Obs.Json.Int c.State.dedup_skips);
      ("missing_payloads", Obs.Json.Int c.State.missing_payloads);
      ("digest", Obs.Json.Int c.State.digest);
      ("staleness_ms", Obs.Json.number (staleness_ms s));
    ]

let plain_get t name =
  let s = read_status t in
  let staleness = staleness_ms s in
  if staleness > staleness_budget_seconds *. 1000. then
    (* Too stale for the read contract: refuse and point at the
       leader rather than serve an unbounded-lag answer. *)
    not_leader_error t ~msg:"replica too stale for reads"
  else read_reply t name ~staleness

(* A linearizable get is a read-index read (Raft_node.read_index): no
   log entry and no fsync. The waiter is registered before the call,
   since a lone replica confirms the read inside it; the answer is held
   to the end of the cycle like a write's. A leader that has not yet
   committed an entry of its term sequences a [Barrier] instead, and
   answers once that applies. *)
let linearizable_get t name ~reply =
  match t.closed with
  | Some err -> reply (Error err)
  | None ->
      let rid = t.next_read in
      t.next_read <- rid + 1;
      Hashtbl.replace t.reads rid (waiter t reply);
      let released result =
        match Hashtbl.find_opt t.reads rid with
        | None -> () (* already answered: expired, or failed with the leader *)
        | Some w ->
            Hashtbl.remove t.reads rid;
            answer t w
              (match result with
              | Some _ -> read_reply t name ~staleness:0.
              | None -> not_leader_error t)
      in
      if not (Raft_node.read_index t.raft released) then (
        Hashtbl.remove t.reads rid;
        submit t Command.Barrier ~reply:(function
          | Error e -> reply (Error e)
          | Ok _ -> reply (read_reply t name ~staleness:0.)))

(* The replica-plane queries, answered on the loop thread: writes go
   onto the log and linearizable reads start their confirmation at
   once, the rest answer at once. *)
let owns = function
  | Wire.Replica_status | Wire.Scenario_put _ | Wire.Scenario_get _ -> true
  | _ -> false

let handle_query t (query : Wire.query) ~reply =
  match query with
  | Wire.Replica_status -> reply (Ok (status_json t))
  | Wire.Scenario_put { name; scenario; nonce } ->
      submit t (Command.Put_scenario { name; scenario; nonce }) ~reply
  | Wire.Scenario_get { name; linearizable = false } -> reply (plain_get t name)
  | Wire.Scenario_get { name; linearizable = true } ->
      linearizable_get t name ~reply
  | _ ->
      (* [owns] keeps every other query on the worker lanes. *)
      reply
        (Error { Server.code = Wire.Internal; msg = "not a replica query"; hint = None })

(* ---- lifecycle ---------------------------------------------------- *)

let start (cfg : config) =
  if cfg.n < 1 || cfg.id < 0 || cfg.id >= cfg.n then
    invalid_arg "Replica.Node.start: id out of range";
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    cfg.state_dir;
  (* Crash recovery: read the durable log before any message or timer
     has run; committed entries re-apply through the hook. *)
  let durable, snapshot =
    match cfg.state_dir with
    | None -> (None, None)
    | Some dir -> (
        match Storage.open_log ~dir with
        | Error msg -> failwith ("replica " ^ string_of_int cfg.id ^ ": " ^ msg)
        | Ok (log, snapshot) -> (Some log, snapshot))
  in
  let links =
    Transport.create ~port:(raft_port cfg cfg.id)
      ~peers:
        (Array.init cfg.n (fun peer ->
             if peer = cfg.id then None else Some (raft_port cfg peer)))
  in
  let payloads = Hashtbl.create 256 in
  let timers = ref [] in
  (* Outbound raft messages queue on their peer's link, with command
     payloads piggybacked for any Data entries; the cycle writes them
     when its fsync allows. *)
  let send dst (msg : Raft_types.msg) =
    let carried (e : Raft_types.entry) =
      match e.command with
      | Data seq -> Option.map (fun b -> (seq, b)) (Hashtbl.find_opt payloads seq)
      | Config _ -> None
    in
    let payloads =
      match msg with
      | Append_entries { entries; _ } -> List.filter_map carried entries
      | _ -> []
    in
    Transport.send links ~dst (Transport.envelope_to_line ~src:cfg.id ~dst msg ~payloads)
  in
  let after delay fire =
    let timer = (Unix.gettimeofday () +. (delay /. 1000.), fire) in
    timers := timer :: !timers;
    fun () -> timers := List.filter (( != ) timer) !timers
  in
  (* Election draws come from the second split of the seed's stream:
     perfbench pins the seed whose draws there win the first election
     in one round. *)
  let rng = Prob.Rng.create (cfg.seed + cfg.id) in
  ignore (Prob.Rng.split rng);
  (* No trace: nothing here reads one, and it would grow with every
     write. *)
  let raft =
    Raft_node.create (Raft_node.default_config ~id:cfg.id ~n:cfg.n)
      ~rng:(Prob.Rng.split rng)
      ~io:{ now = (fun () -> Unix.gettimeofday () *. 1000.); after; send }
  in
  let state = State.create () in
  let t =
    {
      cfg;
      raft;
      timers;
      state;
      payloads;
      waiters = Hashtbl.create 16;
      reads = Hashtbl.create 16;
      next_read = 0;
      closed = None;
      answers = [];
      had_inbound = false;
      heard = Array.make cfg.n (Unix.gettimeofday ());
      links;
      durable;
      persisted_terms = Dessim.Vec.create ();
      persisted_hard = (0, None);
      status_mu = Mutex.create ();
      status =
        {
          s_role = "follower";
          s_term = 0;
          s_leader = None;
          s_commit = 0;
          s_last_contact = Unix.gettimeofday ();
          s_counts = State.counts state;
        };
      server = Atomic.make None;
      next_seq = 1;
      leader_epoch = (false, 0);
    }
  in
  Option.iter
    (fun (snap : Storage.snapshot) ->
      Raft_node.restore raft ~term:snap.term ~voted_for:snap.voted_for
        ~log:snap.log;
      List.iter
        (fun (seq, bytes) -> Hashtbl.replace t.payloads seq bytes)
        snap.payloads;
      List.iter
        (fun (e : Raft_types.entry) -> Dessim.Vec.push t.persisted_terms e.term)
        snap.log;
      t.persisted_hard <- (snap.term, snap.voted_for);
      t.next_seq <- 1 + max_data_seq snap.log)
    snapshot;
  Raft_node.set_apply_hook raft (on_apply t);
  (* The server's loop runs the plane: it selects on the raft-plane
     sockets beside its own, runs the cycle after every select, and
     answers the replica-plane queries itself. *)
  Atomic.set t.server
    (Some
       (Server.start
          ~plane:
            {
              Server.fds = (fun () -> Transport.fds links);
              timeout = (fun () -> timeout t);
              step =
                (fun ~readable ->
                  Transport.service links ~readable ~deliver:(deliver t);
                  cycle t);
              owns;
              handle = handle_query t;
              stop = close_plane t;
            }
          {
            Server.default_config with
            tcp_port = Some cfg.service_port;
            workers = cfg.workers;
          }));
  t

(* The server stops the plane on its loop, which answers every pending
   write while the connections can still carry the reply; the
   raft-plane sockets and segment close after that loop has exited. *)
let stop t =
  match Atomic.exchange t.server None with
  | None -> ()
  | Some server ->
      Server.stop server;
      Transport.close t.links;
      Option.iter Storage.close t.durable

let id t = t.cfg.id
let service_port t = t.cfg.service_port
let is_leader t = (read_status t).s_role = "leader"
let term t = (read_status t).s_term
let leader_hint t = (read_status t).s_leader
let state_counts t = (read_status t).s_counts
