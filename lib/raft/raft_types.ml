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

let pp_command fmt = function
  | Data c -> Format.fprintf fmt "data(%d)" c
  | Config members ->
      Format.fprintf fmt "config({%s})"
        (String.concat "," (List.map string_of_int members))

let pp_msg fmt = function
  | Request_vote { term; candidate_id; _ } ->
      Format.fprintf fmt "RequestVote(t=%d, from=%d)" term candidate_id
  | Request_vote_reply { term; voter_id; granted } ->
      Format.fprintf fmt "VoteReply(t=%d, voter=%d, %b)" term voter_id granted
  | Append_entries { term; leader_id; entries; _ } ->
      Format.fprintf fmt "AppendEntries(t=%d, leader=%d, %d entries)" term leader_id
        (List.length entries)
  | Append_entries_reply { term; follower_id; success; _ } ->
      Format.fprintf fmt "AppendReply(t=%d, from=%d, %b)" term follower_id success
  | Timeout_now { term } -> Format.fprintf fmt "TimeoutNow(t=%d)" term
  | Read_probe { term; leader_id; round } ->
      Format.fprintf fmt "ReadProbe(t=%d, leader=%d, round=%d)" term leader_id round
  | Read_probe_reply { term; follower_id; round } ->
      Format.fprintf fmt "ReadProbeReply(t=%d, from=%d, round=%d)" term follower_id
        round
