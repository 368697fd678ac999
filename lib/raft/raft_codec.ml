open Raft_types

let command_to_json = function
  | Data c -> Obs.Json.Obj [ ("data", Obs.Json.Int c) ]
  | Config members ->
      Obs.Json.Obj
        [ ("config", Obs.Json.List (List.map (fun m -> Obs.Json.Int m) members)) ]

let entry_to_json (e : entry) =
  Obs.Json.Obj
    [
      ("term", Obs.Json.Int e.term);
      ("index", Obs.Json.Int e.index);
      ("cmd", command_to_json e.command);
    ]

let msg_to_json = function
  | Request_vote { term; candidate_id; last_log_index; last_log_term } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "request_vote");
          ("term", Obs.Json.Int term);
          ("candidate_id", Obs.Json.Int candidate_id);
          ("last_log_index", Obs.Json.Int last_log_index);
          ("last_log_term", Obs.Json.Int last_log_term);
        ]
  | Request_vote_reply { term; voter_id; granted } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "request_vote_reply");
          ("term", Obs.Json.Int term);
          ("voter_id", Obs.Json.Int voter_id);
          ("granted", Obs.Json.Bool granted);
        ]
  | Append_entries { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }
    ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "append_entries");
          ("term", Obs.Json.Int term);
          ("leader_id", Obs.Json.Int leader_id);
          ("prev_log_index", Obs.Json.Int prev_log_index);
          ("prev_log_term", Obs.Json.Int prev_log_term);
          ("entries", Obs.Json.List (List.map entry_to_json entries));
          ("leader_commit", Obs.Json.Int leader_commit);
        ]
  | Append_entries_reply { term; follower_id; success; match_index } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "append_entries_reply");
          ("term", Obs.Json.Int term);
          ("follower_id", Obs.Json.Int follower_id);
          ("success", Obs.Json.Bool success);
          ("match_index", Obs.Json.Int match_index);
        ]
  | Timeout_now { term } ->
      Obs.Json.Obj
        [ ("type", Obs.Json.String "timeout_now"); ("term", Obs.Json.Int term) ]
  | Read_probe { term; leader_id; round } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "read_probe");
          ("term", Obs.Json.Int term);
          ("leader_id", Obs.Json.Int leader_id);
          ("round", Obs.Json.Int round);
        ]
  | Read_probe_reply { term; follower_id; round } ->
      Obs.Json.Obj
        [
          ("type", Obs.Json.String "read_probe_reply");
          ("term", Obs.Json.Int term);
          ("follower_id", Obs.Json.Int follower_id);
          ("round", Obs.Json.Int round);
        ]

(* ---- writing -------------------------------------------------------- *)

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)
let add_ints buf = List.iter (add_int buf)
let add_bool buf b = add_int buf (if b then 1 else 0)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_entry buf e =
  add_ints buf [ e.term; e.index ];
  match e.command with
  | Data c -> add_ints buf [ 0; c ]
  | Config members -> add_ints buf (1 :: List.length members :: members)

let add_msg buf = function
  | Request_vote { term; candidate_id; last_log_index; last_log_term } ->
      add_ints buf [ 0; term; candidate_id; last_log_index; last_log_term ]
  | Request_vote_reply { term; voter_id; granted } ->
      add_ints buf [ 1; term; voter_id ];
      add_bool buf granted
  | Append_entries
      { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }
    ->
      add_ints buf
        [ 2; term; leader_id; prev_log_index; prev_log_term; List.length entries ];
      List.iter (add_entry buf) entries;
      add_int buf leader_commit
  | Append_entries_reply { term; follower_id; success; match_index } ->
      add_ints buf [ 3; term; follower_id ];
      add_bool buf success;
      add_int buf match_index
  | Timeout_now { term } -> add_ints buf [ 4; term ]
  | Read_probe { term; leader_id; round } -> add_ints buf [ 5; term; leader_id; round ]
  | Read_probe_reply { term; follower_id; round } ->
      add_ints buf [ 6; term; follower_id; round ]

(* ---- reading -------------------------------------------------------- *)

(* Fields are read in sequence with [let]: the order in which a
   record's fields are evaluated is unspecified. *)
exception Malformed of string

type cursor = { s : string; mutable pos : int; stop : int }

let int c =
  if c.pos + 8 > c.stop then raise (Malformed "cut short");
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let bool c =
  match int c with 0 -> false | 1 -> true | _ -> raise (Malformed "bad boolean")

let take c len =
  if len < 0 || len > c.stop - c.pos then raise (Malformed "bad length");
  let bytes = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  bytes

let string c = take c (int c)

let list c item =
  let k = int c in
  if k < 0 || k > c.stop - c.pos then raise (Malformed "bad count");
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (item c :: acc) in
  go k []

let entry c =
  let term = int c in
  let index = int c in
  let command =
    match int c with
    | 0 -> Data (int c)
    | 1 -> Config (list c int)
    | _ -> raise (Malformed "bad command tag")
  in
  if term < 0 || index < 1 then raise (Malformed "entry term/index out of range");
  { term; index; command }

let msg c =
  match int c with
  | 0 ->
      let term = int c in
      let candidate_id = int c in
      let last_log_index = int c in
      let last_log_term = int c in
      Request_vote { term; candidate_id; last_log_index; last_log_term }
  | 1 ->
      let term = int c in
      let voter_id = int c in
      let granted = bool c in
      Request_vote_reply { term; voter_id; granted }
  | 2 ->
      let term = int c in
      let leader_id = int c in
      let prev_log_index = int c in
      let prev_log_term = int c in
      let entries = list c entry in
      let leader_commit = int c in
      (* A follower pushes each entry at the end of its log once the
         ones before it match, so the indices must run on from
         [prev_log_index]. *)
      if prev_log_index < 0 then raise (Malformed "negative prev_log_index");
      List.iteri
        (fun i (e : entry) ->
          if e.index <> prev_log_index + 1 + i then
            raise (Malformed "entries out of sequence"))
        entries;
      Append_entries
        { term; leader_id; prev_log_index; prev_log_term; entries; leader_commit }
  | 3 ->
      let term = int c in
      let follower_id = int c in
      let success = bool c in
      let match_index = int c in
      Append_entries_reply { term; follower_id; success; match_index }
  | 4 -> Timeout_now { term = int c }
  | 5 ->
      let term = int c in
      let leader_id = int c in
      let round = int c in
      Read_probe { term; leader_id; round }
  | 6 ->
      let term = int c in
      let follower_id = int c in
      let round = int c in
      Read_probe_reply { term; follower_id; round }
  | _ -> raise (Malformed "bad message tag")

let read c reader =
  match reader c with
  | v -> if c.pos = c.stop then Ok v else Error "trailing bytes"
  | exception Malformed why -> Error why

(* ---- the seal ------------------------------------------------------- *)

(* CRC-32 as in zlib and Ethernet: reflected polynomial 0xEDB88320. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_of_bytes b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      crc_table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s ~pos ~len = crc_of_bytes (Bytes.unsafe_of_string s) ~pos ~len
let crc_bytes = 4

let seal write =
  let buf = Buffer.create 256 in
  Buffer.add_int32_le buf 0l;
  write buf;
  let b = Buffer.to_bytes buf in
  Bytes.set_int32_le b 0
    (Int32.of_int (crc_of_bytes b ~pos:crc_bytes ~len:(Bytes.length b - crc_bytes)));
  Bytes.unsafe_to_string b

let unseal s ~pos ~len =
  let body = pos + crc_bytes in
  if
    len >= crc_bytes
    && Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF
       = crc32 s ~pos:body ~len:(len - crc_bytes)
  then Some { s; pos = body; stop = pos + len }
  else None
