type command = Data of int | Config of int list

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
  | Read_probe of { term : int; leader_id : int; round : int }
  | Read_probe_reply of { term : int; follower_id : int; round : int }
