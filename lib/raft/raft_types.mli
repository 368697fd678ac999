(** Raft wire messages and log entries.

    Client commands are integers (the experiments only need identity);
    configuration changes travel through the log as [Config] entries
    carrying the new member set, following the dissertation's
    single-server membership-change algorithm. Log indices are 1-based
    as in the Raft paper; index 0 is the empty-log sentinel with
    term 0. *)

type command =
  | Data of int  (** An ordinary state-machine command. *)
  | Config of int list
      (** New cluster membership; takes effect as soon as the entry is
          appended (not committed), per the Raft membership-change
          rule. *)

type entry = { term : int; index : int; command : command }

type msg =
  | Request_vote of {
      term : int;
      candidate_id : int;
      last_log_index : int;
      last_log_term : int;
    }
  | Request_vote_reply of { term : int; voter_id : int; granted : bool }
  | Append_entries of {
      term : int;
      leader_id : int;
      prev_log_index : int;
      prev_log_term : int;
      entries : entry list;
      leader_commit : int;
    }
  | Append_entries_reply of {
      term : int;
      follower_id : int;
      success : bool;
      match_index : int;
    }
  | Timeout_now of { term : int }
      (** Leadership transfer (Raft §3.10): the leader tells a caught-up
          follower to start an election immediately, without waiting for
          its randomized timeout. *)
  | Read_probe of { term : int; leader_id : int; round : int }
      (** Read-index confirmation (Raft dissertation §6.4): the leader
          asks every member to echo [round], so that a quorum's echoes
          prove nobody had deposed it when the round began. A follower
          treats it like a heartbeat. *)
  | Read_probe_reply of { term : int; follower_id : int; round : int }
      (** The echo, carrying the follower's term: a newer term deposes
          a stale leader. *)
