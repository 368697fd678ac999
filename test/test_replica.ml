(* The replicated deployment: command codec, durable storage, and
   in-process multi-replica clusters exercising leader redirects,
   failover, crash-restart catch-up, chaos-proxied links and the
   measurement harness helpers. *)

module Node = Replica.Node
module Command = Replica.Command
module State = Replica.State
module Storage = Replica.Storage
module Driver = Replica.Driver
module Wire = Service.Wire
module Client = Service.Client
module Raft_codec = Raft_sim.Raft_codec
module Raft_types = Raft_sim.Raft_types

let port_counter = ref 0

(* The raft plane's frame bound, and the two artifact schema tags. *)
let max_envelope_bytes = 4_000_000
let storage_schema = "probcons-replica-durable/3"
let driver_schema = "probcons-repl-avail/1"

(* Blocks of 30 ports below the kernel's ephemeral range (32768 and
   up), so no client socket an earlier test left in TIME_WAIT holds one
   of them. *)
let fresh_base () =
  incr port_counter;
  20000 + (((Unix.getpid () mod 40 * 300) + (!port_counter * 30)) mod 12000)

let tmp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !port_counter)
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let scenario_a = Probcons.Scenario.uniform ~protocol:"raft" ~n:3 ~p:0.01 ()
let scenario_b = Probcons.Scenario.uniform ~protocol:"pbft" ~n:4 ~p:0.02 ()

let poll ?(timeout = 15.) ?(every = 0.05) f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Thread.delay every;
      go ())
  in
  go ()

(* ---- codecs and state machine ------------------------------------- *)

let test_command_codec () =
  let op = Command.Put_scenario { name = "alpha"; scenario = scenario_a; nonce = 0 } in
  let id1 = Command.id op in
  let id2 =
    Command.id
      (Command.Put_scenario { name = "alpha"; scenario = scenario_a; nonce = 0 })
  in
  Alcotest.(check string) "equal ops have equal ids" id1 id2;
  (match Command.of_string id1 with
  | Ok (Command.Put_scenario { name; nonce; _ }) ->
      Alcotest.(check string) "name round-trips" "alpha" name;
      Alcotest.(check int) "nonce defaults to 0" 0 nonce
  | _ -> Alcotest.fail "put did not round-trip");
  let nonced =
    Command.Put_scenario { name = "alpha"; scenario = scenario_a; nonce = 7 }
  in
  Alcotest.(check bool)
    "nonce distinguishes ids" false
    (Command.id nonced = id1);
  (match Command.of_string (Command.to_string Command.Barrier) with
  | Ok Command.Barrier -> ()
  | _ -> Alcotest.fail "barrier did not round-trip");
  (* Older segments may hold cache-warming records; they replay as
     no-ops. *)
  (match Command.of_string {|{"op":"warm","key":"k","payload":"{}"}|} with
  | Ok Command.Barrier -> ()
  | _ -> Alcotest.fail "a warm record did not decode as a barrier");
  (match Command.of_string {|{"op":"put","name":"bad name!","scenario":{}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid store name accepted")

(* Every message and entry kind survives the binary codec, through its
   seal; an unknown tag does not decode. *)
let test_raft_codec () =
  let entries =
    [
      { Raft_types.term = 2; index = 5; command = Raft_types.Data 17 };
      { Raft_types.term = 3; index = 6; command = Raft_types.Config [ 0; 1; 2 ] };
      { Raft_types.term = 3; index = 7; command = Raft_types.Config [] };
    ]
  in
  let msgs =
    [
      Raft_types.Request_vote
        { term = 4; candidate_id = 1; last_log_index = 6; last_log_term = 3 };
      Raft_types.Request_vote_reply { term = 4; voter_id = 2; granted = true };
      Raft_types.Append_entries
        {
          term = 4;
          leader_id = 1;
          prev_log_index = 4;
          prev_log_term = 2;
          entries;
          leader_commit = 5;
        };
      Raft_types.Append_entries_reply
        { term = 4; follower_id = 0; success = false; match_index = 3 };
      Raft_types.Timeout_now { term = 4 };
      Raft_types.Read_probe { term = 4; leader_id = 1; round = 9 };
      Raft_types.Read_probe_reply { term = 5; follower_id = 2; round = 9 };
    ]
  in
  let decode write reader =
    let sealed = Raft_codec.seal write in
    match Raft_codec.unseal sealed ~pos:0 ~len:(String.length sealed) with
    | Some c -> Raft_codec.read c reader
    | None -> Alcotest.fail "a sealed body failed its checksum"
  in
  List.iter
    (fun msg ->
      match decode (fun buf -> Raft_codec.add_msg buf msg) Raft_codec.msg with
      | Ok decoded ->
          Alcotest.(check bool) "msg round-trips" true (decoded = msg)
      | Error e -> Alcotest.fail ("codec: " ^ e))
    msgs;
  List.iter
    (fun entry ->
      match decode (fun buf -> Raft_codec.add_entry buf entry) Raft_codec.entry with
      | Ok decoded ->
          Alcotest.(check bool) "entry round-trips" true (decoded = entry)
      | Error e -> Alcotest.fail ("codec: " ^ e))
    entries;
  (match decode (fun buf -> List.iter (Raft_codec.add_int buf) [ 7; 4 ]) Raft_codec.msg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown msg tag accepted")

(* Every message kind, with and without payloads, survives the binary
   envelope. Each one travels from the node its sender field names. *)
let test_transport_envelope () =
  let module Transport = Replica.Transport in
  let entries =
    [
      { Raft_types.term = 1; index = 1; command = Raft_types.Data 1 };
      { Raft_types.term = 2; index = 2; command = Raft_types.Config [ 0; 1; 2 ] };
      { Raft_types.term = 2; index = 3; command = Raft_types.Config [] };
    ]
  in
  let msgs =
    [
      ( 1,
        Raft_types.Request_vote
          { term = 4; candidate_id = 1; last_log_index = 6; last_log_term = 3 } );
      (2, Raft_types.Request_vote_reply { term = 4; voter_id = 2; granted = true });
      (2, Raft_types.Request_vote_reply { term = 4; voter_id = 2; granted = false });
      ( 0,
        Raft_types.Append_entries
          {
            term = 2;
            leader_id = 0;
            prev_log_index = 0;
            prev_log_term = 0;
            entries;
            leader_commit = max_int;
          } );
      ( 0,
        Raft_types.Append_entries
          {
            term = 2;
            leader_id = 0;
            prev_log_index = 3;
            prev_log_term = 2;
            entries = [];
            leader_commit = 3;
          } );
      ( 0,
        Raft_types.Append_entries_reply
          { term = 4; follower_id = 0; success = true; match_index = 3 } );
      (0, Raft_types.Timeout_now { term = min_int });
      (1, Raft_types.Read_probe { term = 4; leader_id = 1; round = 9 });
      (2, Raft_types.Read_probe_reply { term = 5; follower_id = 2; round = 9 });
    ]
  in
  List.iter
    (fun payloads ->
      List.iter
        (fun (src, msg) ->
          match
            Transport.envelope_of_line
              (Transport.envelope_to_line ~src ~dst:3 msg ~payloads)
          with
          | Ok (s, 3, decoded, got) when s = src ->
              Alcotest.(check bool) "msg survives" true (decoded = msg);
              Alcotest.(check (list (pair int string))) "payloads survive" payloads got
          | Ok _ -> Alcotest.fail "wrong envelope fields"
          | Error e -> Alcotest.fail e)
        msgs)
    [ []; [ (1, {|{"op":"barrier"}|}); (7, ""); (8, "\000\n\255") ] ]

(* The decoder is total and strict: a checksum guards every byte, and
   an envelope whose checksum holds must still be well formed. *)
let test_transport_envelope_rejects () =
  let module Transport = Replica.Transport in
  let line =
    Transport.envelope_to_line ~src:1 ~dst:0
      (Raft_types.Append_entries
         {
           term = 3;
           leader_id = 1;
           prev_log_index = 0;
           prev_log_term = 0;
           entries = [ { Raft_types.term = 3; index = 1; command = Raft_types.Data 5 } ];
           leader_commit = 0;
         })
      ~payloads:[ (5, "five") ]
  in
  let rejected what s =
    match Transport.envelope_of_line s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s decoded" what
  in
  for cut = 0 to String.length line - 1 do
    rejected (Printf.sprintf "a cut at byte %d" cut) (String.sub line 0 cut)
  done;
  String.iteri
    (fun at c ->
      let flipped = Bytes.of_string line in
      Bytes.set flipped at (Char.chr (Char.code c lxor 0x01));
      rejected (Printf.sprintf "a flipped bit in byte %d" at) (Bytes.to_string flipped))
    line;
  (* Re-checksummed bodies: what the checksum cannot catch. *)
  let sealed words tail =
    Raft_codec.seal (fun buf ->
        List.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) words;
        Buffer.add_string buf tail)
  in
  (match Transport.envelope_of_line (sealed [ 1; 0; 4; 7; 0 ] "") with
  | Ok (1, 0, Raft_types.Timeout_now { term = 7 }, []) -> ()
  | _ -> Alcotest.fail "a hand-sealed envelope did not decode");
  List.iter
    (fun (what, words, tail) -> rejected what (sealed words tail))
    [
      ("an unknown message tag", [ 1; 0; 7; 7; 0 ], "");
      ("a negative message tag", [ 1; 0; -1; 7; 0 ], "");
      ("a boolean of 2", [ 1; 0; 1; 7; 2; 2; 0 ], "");
      ("a trailing byte", [ 1; 0; 4; 7; 0 ], "x");
      ("a trailing word", [ 1; 0; 4; 7; 0; 0 ], "");
      ("a missing payload count", [ 1; 0; 4; 7 ], "");
      ("a negative payload count", [ 1; 0; 4; 7; -1 ], "");
      ("a payload count past the end", [ 1; 0; 4; 7; 3 ], "");
      ("a payload length past the end", [ 1; 0; 4; 7; 1; 5; 9 ], "abc");
      ("a negative payload seq", [ 1; 0; 4; 7; 1; -5; 0 ], "");
      ("an entry count past the end", [ 1; 0; 2; 3; 1; 0; 0; 1000 ], "");
      ("an unknown command tag", [ 1; 0; 2; 3; 1; 0; 0; 1; 3; 1; 2; 5; 0; 0 ], "");
      ("an entry at index 0", [ 1; 0; 2; 3; 1; 0; 0; 1; 3; 0; 0; 5; 0; 0 ], "");
      ("a negative member count", [ 1; 0; 2; 3; 1; 0; 0; 1; 3; 1; 1; -1; 0; 0 ], "");
      ("a follower_id that is not src", [ 1; 0; 3; 3; 7; 1; 0; 0 ], "");
      ("a negative prev_log_index", [ 1; 0; 2; 3; 1; -1; 0; 0; 0; 0 ], "");
      ( "entries with a gap",
        [ 1; 0; 2; 3; 1; 0; 0; 2; 3; 1; 0; 5; 3; 3; 0; 6; 0; 0 ],
        "" );
    ]

(* An envelope over the raft plane's bound is refused and counted where
   it is framed, never raised; a peer announcing one loses only its own
   connection. This thread drives both ends, as a replica's loop drives
   its links. *)
let test_transport_oversized () =
  let module Transport = Replica.Transport in
  let port = fresh_base () in
  let receiver = Transport.create ~port ~peers:[| None; None |] in
  let sender = Transport.create ~port:(port + 1) ~peers:[| Some port; None |] in
  Fun.protect
    ~finally:(fun () ->
      Transport.close sender;
      Transport.close receiver)
  @@ fun () ->
  let got = ref [] in
  let step transport ~deliver =
    Transport.flush transport;
    let reads, writes = Transport.fds transport in
    let readable, _, _ = Unix.select reads writes [] 0.01 in
    Transport.service transport ~readable ~deliver
  in
  let turn () =
    step sender ~deliver:(fun ~src:_ ~dst:_ _ ~payloads:_ -> ());
    step receiver ~deliver:(fun ~src ~dst:_ _ ~payloads:_ -> got := src :: !got)
  in
  let delivered src () =
    turn ();
    List.mem src !got
  in
  let envelope src =
    Transport.envelope_to_line ~src ~dst:1
      (Raft_types.Timeout_now { term = 1 }) ~payloads:[]
  in
  Transport.send sender ~dst:0
    (String.make (max_envelope_bytes + 1) 'x');
  Alcotest.(check int) "oversized envelope counted" 1 (Transport.dropped sender);
  Transport.send sender ~dst:0 (envelope 0);
  Alcotest.(check bool) "the link still carries envelopes" true
    (poll (delivered 0));
  (* A raw peer declaring a frame past the bound is cut off from the
     header alone; the listener keeps serving everyone else. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let header = Bytes.create Service.Frame.header_bytes in
  Bytes.set header 0 Service.Frame.magic;
  Bytes.set header 1 '\x03';
  Bytes.set_int32_be header 2
    (Int32.of_int (max_envelope_bytes + 1));
  ignore (Unix.write fd header 0 (Bytes.length header));
  Alcotest.(check bool) "the announcing peer's connection ends" true
    (poll ~timeout:5. (fun () ->
         turn ();
         match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true));
  Alcotest.(check int) "announcing peer is closed" 0
    (Unix.read fd (Bytes.create 1) 0 1);
  Transport.send sender ~dst:0 (envelope 2);
  Alcotest.(check bool) "other links unaffected" true (poll (delivered 2))

let test_state_dedup () =
  let st = State.create () in
  let op = Command.Put_scenario { name = "x"; scenario = scenario_a; nonce = 0 } in
  let id = Command.id op in
  Alcotest.(check bool) "first apply" true (State.apply st ~seq:1 op ~id = `Applied);
  Alcotest.(check bool)
    "second apply is a duplicate" true
    (State.apply st ~seq:2 op ~id = `Duplicate);
  let c = State.counts st in
  Alcotest.(check int) "one dedup skip" 1 c.State.dedup_skips;
  Alcotest.(check int) "store holds one entry" 1 c.State.store_size;
  (match State.get st "x" with
  | Some e -> Alcotest.(check int) "first seq wins" 1 e.State.seq
  | None -> Alcotest.fail "entry missing");
  (* Barriers are never duplicates and mutate nothing. *)
  Alcotest.(check bool)
    "barrier applies" true
    (State.apply st ~seq:3 Command.Barrier ~id:(Command.id Command.Barrier)
    = `Applied);
  Alcotest.(check bool)
    "barrier applies again" true
    (State.apply st ~seq:4 Command.Barrier ~id:(Command.id Command.Barrier)
    = `Applied)

let test_storage_roundtrip () =
  let dir = tmp_dir "probcons-replica-storage" in
  let snap =
    {
      Storage.term = 3;
      voted_for = Some 1;
      log =
        [
          { Raft_types.term = 1; index = 1; command = Raft_types.Data 1 };
          { Raft_types.term = 3; index = 2; command = Raft_types.Data 2 };
        ];
      payloads = [ (1, {|{"op":"barrier"}|}); (2, {|{"op":"barrier"}|}) ];
    }
  in
  Storage.save ~dir snap;
  (match Storage.load ~dir with
  | Ok (Some loaded) ->
      Alcotest.(check bool) "snapshot round-trips" true (loaded = snap)
  | Ok None -> Alcotest.fail "snapshot missing"
  | Error e -> Alcotest.fail e);
  (* Corrupt file must be an error, not an empty boot. *)
  let oc = open_out (Storage.path ~dir) in
  output_string oc "{\"schema\":\"nope\"}";
  close_out oc;
  (match Storage.load ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt snapshot accepted");
  Alcotest.(check bool)
    "absent dir loads None" true
    (Storage.load ~dir:(tmp_dir "probcons-replica-empty") = Ok None);
  (* A state directory from the older whole-file format must not boot
     empty either. *)
  let legacy = tmp_dir "probcons-replica-legacy" in
  write_file
    (Filename.concat legacy "durable.json")
    {|{"schema":"probcons-replica-durable/1","term":3}|};
  (match Storage.load ~dir:legacy with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a legacy durable.json loaded");
  (match Storage.open_log ~dir:legacy with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a legacy durable.json opened for appending");
  (* Nor a segment of the JSON-record format: its header frame is a u32
     length, a u32 CRC-32, then the schema record. The error names it. *)
  let older = tmp_dir "probcons-replica-durable2" in
  let frame = Bytes.create 8 in
  Bytes.set_int32_le frame 0 40l;
  Bytes.set_int32_le frame 4 0xe668c44dl;
  write_file (Storage.path ~dir:older)
    (Bytes.to_string frame ^ {|{"schema":"probcons-replica-durable/2"}|});
  let names_v2 = function
    | Error e -> contains e "probcons-replica-durable/2"
    | Ok _ -> false
  in
  Alcotest.(check bool)
    "a /2 segment does not load, by name" true
    (names_v2 (Storage.load ~dir:older));
  Alcotest.(check bool)
    "a /2 segment does not open for appending, by name" true
    (names_v2 (Storage.open_log ~dir:older))

let open_log dir =
  match Storage.open_log ~dir with
  | Ok opened -> opened
  | Error e -> Alcotest.fail e

let size_of path = (Unix.stat path).Unix.st_size

(* The bytes a segment's appends wrote: its frames, walked by their
   headers up to the zero fill the segment is preallocated with. *)
let written path =
  let s = read_file path in
  let rec stop pos =
    match Service.Frame.header_at ~max_payload_bytes:max_int s ~pos with
    | Ok (Some len) -> stop (pos + Service.Frame.header_bytes + len)
    | Ok None | Error _ -> pos
  in
  String.sub s 0 (stop 0)

let chunk_bytes = 256 * 1024

(* The segment file under crashes: a cut anywhere recovers exactly the
   complete records before it, damage before the last frame is an
   error rather than a silent truncation, and a torn file reopened for
   appending continues from its good prefix. The segment is
   preallocated in 256 KiB chunks of zeros, so each prefix ends where
   its written bytes end, not at the file size. *)
let test_storage_crash_cut () =
  let entry ~term ~index command = { Raft_types.term; index; command } in
  let data ~term ~index seq bytes =
    Storage.Entry
      { entry = entry ~term ~index (Raft_types.Data seq); payload = Some bytes }
  in
  let records =
    [
      Storage.Hard_state { term = 1; voted_for = Some 0 };
      data ~term:1 ~index:1 1 {|{"op":"barrier"}|};
      data ~term:1 ~index:2 2 "two";
      Storage.Entry
        {
          entry = entry ~term:1 ~index:3 (Raft_types.Config [ 0; 1; 2 ]);
          payload = None;
        };
      data ~term:1 ~index:4 3 "three";
      data ~term:1 ~index:5 4 "four";
      Storage.Hard_state { term = 2; voted_for = None };
      Storage.Truncate { from = 4 };
      (* Sequence number 3 again, with new bytes (control characters
         included) from the new term's leader. *)
      data ~term:2 ~index:4 3 "three, again\n\000";
    ]
  in
  let dir = tmp_dir "probcons-replica-segment" in
  let file = Storage.path ~dir in
  let log, fresh = open_log dir in
  Alcotest.(check bool) "a fresh directory opens empty" true (fresh = None);
  Alcotest.(check int) "a fresh segment is one zero-filled chunk" chunk_bytes
    (size_of file);
  let header = written file in
  Alcotest.(check string)
    "header frame: a wire/3 frame header, a CRC-32, then the schema string"
    ("\xFB\x03\x00\x00\x00\x1E" ^ String.sub header 6 4 ^ storage_schema)
    header;
  Alcotest.(check int32)
    "header CRC-32, as zlib computes it" 0xc97c3428l
    (String.get_int32_le header 6);
  (* One record per append, noting where each ends and what the file
     holds there. *)
  let prefixes =
    List.map
      (fun r ->
        Storage.append log [ r ];
        match Storage.load ~dir with
        | Ok (Some snap) -> (String.length (written file), snap)
        | Ok None | Error _ -> Alcotest.fail "a clean segment did not load")
      records
  in
  Storage.close log;
  let full = written file in
  let final =
    {
      Storage.term = 2;
      voted_for = None;
      log =
        [
          entry ~term:1 ~index:1 (Raft_types.Data 1);
          entry ~term:1 ~index:2 (Raft_types.Data 2);
          entry ~term:1 ~index:3 (Raft_types.Config [ 0; 1; 2 ]);
          entry ~term:2 ~index:4 (Raft_types.Data 3);
        ];
      payloads =
        [ (1, {|{"op":"barrier"}|}); (2, "two"); (3, "three, again\n\000") ];
    }
  in
  Alcotest.(check bool)
    "replay applies the truncate and the reused sequence number" true
    (Storage.load ~dir = Ok (Some final));
  (* Group commit writes the same bytes as one append per record. *)
  let batch = tmp_dir "probcons-replica-segment-batch" in
  let batch_log, _ = open_log batch in
  Storage.append batch_log records;
  Storage.close batch_log;
  Alcotest.(check string)
    "one append of the batch" (read_file file)
    (read_file (Storage.path ~dir:batch));
  let probe = tmp_dir "probcons-replica-segment-probe" in
  let load_bytes s =
    write_file (Storage.path ~dir:probe) s;
    Storage.load ~dir:probe
  in
  let empty = { Storage.term = 0; voted_for = None; log = []; payloads = [] } in
  let header_end = String.length header in
  (* The preallocated file as the appends left it, fill and all, loads
     the same records; so does a fresh segment, header and fill. *)
  Alcotest.(check bool)
    "the segment with its full fill loads the same records" true
    (load_bytes (read_file file) = Ok (Some final));
  Alcotest.(check bool)
    "a header and its fill load as an empty log" true
    (load_bytes (header ^ String.make (chunk_bytes - header_end) '\000')
    = Ok (Some empty));
  (* A crash can also leave the file longer than the bytes that reached
     the disk, the rest zero-filled; that fill belongs to the torn tail,
     unless it rebuilds a record whose bytes past the cut are zeros. *)
  let zero_fill = String.make 64 '\000' in
  let zeros_in ~from ~until =
    String.for_all (fun c -> c = '\000') (String.sub full from (until - from))
  in
  for cut = 0 to String.length full do
    List.iter
      (fun fill ->
        let intact stop =
          stop <= cut
          || fill <> ""
             && stop <= cut + String.length fill
             && zeros_in ~from:cut ~until:stop
        in
        let expected =
          List.fold_left
            (fun acc (stop, snap) -> if intact stop then snap else acc)
            empty prefixes
        in
        let what = if fill = "" then "" else " (zero-filled)" in
        match load_bytes (String.sub full 0 cut ^ fill) with
        | Error e ->
            if cut >= header_end then
              Alcotest.failf "cut at byte %d%s: %s" cut what e
        | Ok got ->
            if cut < header_end then
              Alcotest.failf "cut at byte %d%s, inside the header, loaded" cut
                what;
            if got <> Some expected then
              Alcotest.failf "cut at byte %d%s lost or invented a record" cut
                what)
      [ ""; zero_fill ]
  done;
  let last_start = fst (List.nth prefixes (List.length prefixes - 2)) in
  for at = 0 to last_start - 1 do
    let damaged = Bytes.of_string full in
    Bytes.set damaged at (Char.chr (Char.code full.[at] lxor 0xff));
    match load_bytes (Bytes.to_string damaged) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "a flipped byte at %d, before the last frame, loaded" at
  done;
  (* Zeros with real frames behind them are damage, not a torn tail. *)
  List.iter
    (fun (stop, _) ->
      if stop < String.length full then
        match
          load_bytes
            (String.sub full 0 stop ^ String.make 8 '\000'
            ^ String.sub full stop (String.length full - stop))
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "an empty frame at byte %d, before others, loaded" stop)
    prefixes;
  (* Reopen a file torn inside its last frame, with and without zero
     fill, and keep appending. *)
  let good = snd (List.nth prefixes (List.length prefixes - 2)) in
  List.iter
    (fun fill ->
      let torn = tmp_dir "probcons-replica-segment-torn" in
      write_file (Storage.path ~dir:torn)
        (String.sub full 0 (last_start + 5) ^ fill);
      let torn_log, recovered = open_log torn in
      Alcotest.(check bool)
        "the torn file opens as its good prefix" true
        (recovered = Some good);
      Storage.append torn_log
        [
          Storage.Hard_state { term = 3; voted_for = Some 2 };
          data ~term:3 ~index:4 5 "five";
        ];
      Storage.close torn_log;
      Alcotest.(check bool)
        "appends land after the good prefix" true
        (Storage.load ~dir:torn
        = Ok
            (Some
               {
                 Storage.term = 3;
                 voted_for = Some 2;
                 log =
                   good.Storage.log @ [ entry ~term:3 ~index:4 (Raft_types.Data 5) ];
                 payloads = good.Storage.payloads @ [ (5, "five") ];
               })))
    [ ""; zero_fill ];
  (* Reopened with its full fill, the segment appends after its last
     frame; a record crossing the allocated end extends the file by
     whole chunks. *)
  let log, recovered = open_log dir in
  Alcotest.(check bool)
    "the filled segment reopens as its records" true (recovered = Some final);
  Alcotest.(check int) "reopening keeps one chunk" chunk_bytes (size_of file);
  let big = String.make (chunk_bytes + 1000) 'x' in
  Storage.append log [ data ~term:2 ~index:5 6 big ];
  Storage.close log;
  Alcotest.(check int) "a crossing record extends by whole chunks"
    (2 * chunk_bytes) (size_of file);
  Alcotest.(check bool)
    "the record after the reopen loads" true
    (Storage.load ~dir
    = Ok
        (Some
           {
             final with
             Storage.log = final.Storage.log @ [ entry ~term:2 ~index:5 (Raft_types.Data 6) ];
             payloads = final.Storage.payloads @ [ (6, big) ];
           }))

let test_wire_replica_kinds () =
  let roundtrip q =
    let body = Wire.encode_request { Wire.id = 9; query = q } in
    match Wire.parse_request body with
    | Ok { Wire.id = 9; query } ->
        Alcotest.(check bool) "query round-trips" true (query = q)
    | Ok _ -> Alcotest.fail "wrong id"
    | Error (_, code, msg) ->
        Alcotest.fail (Printf.sprintf "%s: %s" (Wire.code_string code) msg)
  in
  roundtrip (Wire.Scenario_put { name = "a.b-c_1"; scenario = scenario_a; nonce = 0 });
  roundtrip (Wire.Scenario_put { name = "z"; scenario = scenario_b; nonce = 12 });
  roundtrip (Wire.Scenario_get { name = "a"; linearizable = false });
  roundtrip (Wire.Scenario_get { name = "a"; linearizable = true });
  roundtrip Wire.Replica_status;
  List.iter
    (fun q ->
      Alcotest.(check bool) "replica-plane queries are not cacheable" false
        (Wire.cacheable q))
    [
      Wire.Scenario_put { name = "a"; scenario = scenario_a; nonce = 0 };
      Wire.Scenario_get { name = "a"; linearizable = false };
      Wire.Replica_status;
    ];
  (* A not_leader error carries its redirect hint through the wire. *)
  let line = Wire.encode_error ~hint:2 ~id:(Some 4) Wire.Not_leader "try 2" in
  match Wire.parse_response line with
  | Ok { Wire.rid = Some 4; body = Error (Wire.Not_leader, _); rhint = Some 2 } ->
      ()
  | Ok _ -> Alcotest.fail "hint did not round-trip"
  | Error e -> Alcotest.fail e

(* ---- in-process clusters ------------------------------------------ *)

let cluster_config ?state_dir ?commit_timeout ?(workers = 2) ~base ~n i =
  let cfg =
    Node.default_config ~id:i ~n ~base_port:base
      ~service_port:(Driver.service_port ~base_port:base ~replicas:n i)
  in
  {
    cfg with
    Node.state_dir =
      (match state_dir with None -> None | Some root -> Some (Filename.concat root (string_of_int i)));
    workers;
    commit_timeout_seconds =
      Option.value commit_timeout ~default:cfg.Node.commit_timeout_seconds;
  }

let stop_nodes nodes =
  Array.iter
    (fun slot ->
      match !slot with
      | Some node ->
          slot := None;
          Node.stop node
      | None -> ())
    nodes

let with_cluster ?state_dir ?commit_timeout ?workers ~n f =
  let base = fresh_base () in
  let nodes =
    Array.init n (fun i ->
        ref
          (Some
             (Node.start
                (cluster_config ?state_dir ?commit_timeout ?workers ~base ~n i))))
  in
  Fun.protect ~finally:(fun () -> stop_nodes nodes) (fun () -> f ~base ~nodes)

let live_nodes nodes =
  Array.to_list nodes |> List.filter_map (fun slot -> !slot)

let wait_leader nodes =
  Alcotest.(check bool)
    "a leader emerges" true
    (poll (fun () -> List.exists Node.is_leader (live_nodes nodes)));
  List.find Node.is_leader (live_nodes nodes)

let multi_of ~base ~n () =
  Client.Multi.create ~timeout:8.
    (List.init n (fun i ->
         Client.Tcp (Driver.service_port ~base_port:base ~replicas:n i)))

let expect_ok what = function
  | Ok j -> j
  | Error (code, msg) ->
      Alcotest.fail
        (Printf.sprintf "%s failed: %s: %s" what (Wire.code_string code) msg)

let test_e2e_put_get () =
  with_cluster ~n:3 (fun ~base ~nodes ->
      let _leader = wait_leader nodes in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      let put =
        expect_ok "put"
          (Client.Multi.call multi ~id:1
             (Wire.Scenario_put { name = "alpha"; scenario = scenario_a; nonce = 0 }))
      in
      Alcotest.(check bool)
        "put acknowledged" true
        (Obs.Json.member "stored" put = Some (Obs.Json.Bool true));
      let got =
        expect_ok "linearizable get"
          (Client.Multi.call multi ~id:2
             (Wire.Scenario_get { name = "alpha"; linearizable = true }))
      in
      Alcotest.(check bool)
        "linearizable get finds the put" true
        (Obs.Json.member "found" got = Some (Obs.Json.Bool true));
      (match Obs.Json.member "scenario" got with
      | Some sj ->
          Alcotest.(check bool)
            "stored scenario round-trips" true
            (Probcons.Scenario.of_json sj = Ok scenario_a)
      | None -> Alcotest.fail "reply carries no scenario");
      let missing =
        expect_ok "get of missing name"
          (Client.Multi.call multi ~id:3
             (Wire.Scenario_get { name = "ghost"; linearizable = true }))
      in
      Alcotest.(check bool)
        "missing name reads as absent" true
        (Obs.Json.member "found" missing = Some (Obs.Json.Bool false));
      (* A duplicate put (same canonical bytes) is acknowledged without
         a second application. *)
      let dup =
        expect_ok "duplicate put"
          (Client.Multi.call multi ~id:4
             (Wire.Scenario_put { name = "alpha"; scenario = scenario_a; nonce = 0 }))
      in
      Alcotest.(check bool)
        "duplicate flagged" true
        (Obs.Json.member "duplicate" dup = Some (Obs.Json.Bool true));
      let status =
        expect_ok "status"
          (Client.Multi.call multi ~id:5 Wire.Replica_status)
      in
      Alcotest.(check bool)
        "status carries the schema" true
        (Obs.Json.member "schema" status
        = Some (Obs.Json.String "probcons-replica-status/1"));
      (* Followers converge to the same applied state. *)
      Alcotest.(check bool)
        "all replicas converge" true
        (poll (fun () ->
             match live_nodes nodes with
             | first :: rest ->
                 let d node = (Node.state_counts node).State.digest in
                 let s node = (Node.state_counts node).State.store_size in
                 List.for_all
                   (fun node -> d node = d first && s node = s first)
                   rest
                 && s first = 1
             | [] -> false)))

let test_failover_and_restart () =
  let root = tmp_dir "probcons-replica-failover" in
  with_cluster ~state_dir:root ~n:3 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let leader_id = Node.id leader in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      ignore
        (expect_ok "put a"
           (Client.Multi.call multi ~id:1
              (Wire.Scenario_put { name = "a"; scenario = scenario_a; nonce = 0 })));
      (* Kill the leader: the client must fail over to the new leader
         elected by the surviving majority. *)
      (match !(nodes.(leader_id)) with
      | Some node ->
          nodes.(leader_id) := None;
          Node.stop node
      | None -> Alcotest.fail "leader slot empty");
      ignore
        (expect_ok "put b after failover"
           (Client.Multi.call ~timeout:12. multi ~id:2
              (Wire.Scenario_put { name = "b"; scenario = scenario_b; nonce = 0 })));
      let survivor = wait_leader nodes in
      Alcotest.(check bool)
        "a different replica leads" true
        (Node.id survivor <> leader_id);
      (* Restart the killed replica from its durable state: it must
         catch up to both writes. *)
      nodes.(leader_id) :=
        Some
          (Node.start
             (cluster_config ~state_dir:root ~base ~n:3 leader_id));
      Alcotest.(check bool)
        "restarted replica catches up" true
        (poll ~timeout:20. (fun () ->
             match !(nodes.(leader_id)) with
             | Some node ->
                 let c = Node.state_counts node in
                 c.State.store_size = 2 && c.State.missing_payloads = 0
             | None -> false));
      (* No acknowledged write was lost anywhere. *)
      let got =
        expect_ok "read back a"
          (Client.Multi.call multi ~id:3
             (Wire.Scenario_get { name = "a"; linearizable = true }))
      in
      Alcotest.(check bool)
        "write a survived the failover" true
        (Obs.Json.member "found" got = Some (Obs.Json.Bool true)))

let stop_followers nodes leader =
  Array.iter
    (fun slot ->
      match !slot with
      | Some node when Node.id node <> Node.id leader ->
          slot := None;
          Node.stop node
      | _ -> ())
    nodes

(* With both followers gone a write can never commit. The pump owns
   commit deadlines, so the leader must still answer it
   [deadline_exceeded] once the commit timeout passes. *)
let test_commit_deadline () =
  with_cluster ~commit_timeout:0.5 ~n:3 (fun ~base ~nodes ->
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      ignore
        (expect_ok "put with a quorum"
           (Client.Multi.call multi ~id:1
              (Wire.Scenario_put { name = "a"; scenario = scenario_a; nonce = 0 })));
      let leader = wait_leader nodes in
      stop_followers nodes leader;
      let c = Client.connect ~timeout:5. (Client.Tcp (Node.service_port leader)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let reply =
        Client.call c ~id:2
          (Wire.Scenario_put { name = "b"; scenario = scenario_b; nonce = 0 })
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match reply with
      | Error (Wire.Deadline_exceeded, _) -> ()
      | Error (code, msg) ->
          Alcotest.failf "expected deadline_exceeded, got %s: %s"
            (Wire.code_string code) msg
      | Ok _ -> Alcotest.fail "a put committed without a quorum");
      if elapsed >= 1.0 then
        Alcotest.failf "deadline_exceeded took %.3f s (limit 1 s)" elapsed)

(* A write waiting for its commit holds no worker lane: with one lane
   and no quorum, the leader still answers [replica_status] at once,
   and the write still ends [deadline_exceeded]. *)
let test_pending_write_frees_lane () =
  with_cluster ~workers:1 ~commit_timeout:2. ~n:3 (fun ~base ~nodes ->
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      ignore
        (expect_ok "put with a quorum"
           (Client.Multi.call multi ~id:1
              (Wire.Scenario_put { name = "a"; scenario = scenario_a; nonce = 0 })));
      let leader = wait_leader nodes in
      stop_followers nodes leader;
      let connect () =
        Client.connect ~timeout:5. (Client.Tcp (Node.service_port leader))
      in
      let put_reply = ref None in
      let writer =
        Thread.create
          (fun () ->
            let c = connect () in
            put_reply :=
              Some
                (Client.call c ~id:2
                   (Wire.Scenario_put
                      { name = "b"; scenario = scenario_b; nonce = 0 }));
            Client.close c)
          ()
      in
      Thread.delay 0.3;
      let c = connect () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      ignore (expect_ok "status" (Client.call c ~id:3 Wire.Replica_status));
      let elapsed = Unix.gettimeofday () -. t0 in
      Thread.join writer;
      if elapsed >= 0.5 then
        Alcotest.failf "replica_status took %.3f s behind a pending write" elapsed;
      match !put_reply with
      | Some (Error (Wire.Deadline_exceeded, _)) -> ()
      | Some (Error (code, msg)) ->
          Alcotest.failf "expected deadline_exceeded, got %s: %s"
            (Wire.code_string code) msg
      | Some (Ok _) -> Alcotest.fail "a put committed without a quorum"
      | None -> Alcotest.fail "the put never returned")

(* A lone replica is its own quorum: it commits and applies a write
   inside the submit, and must still answer it. *)
let test_single_replica () =
  with_cluster ~n:1 (fun ~base:_ ~nodes ->
      let node = wait_leader nodes in
      let c = Client.connect ~timeout:5. (Client.Tcp (Node.service_port node)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let timed what query =
        let t0 = Unix.gettimeofday () in
        let j = expect_ok what (Client.call c ~id:1 query) in
        let elapsed = Unix.gettimeofday () -. t0 in
        if elapsed >= 0.5 then Alcotest.failf "%s took %.3f s" what elapsed;
        j
      in
      ignore
        (timed "put"
           (Wire.Scenario_put { name = "solo"; scenario = scenario_a; nonce = 0 }));
      let got =
        timed "linearizable get"
          (Wire.Scenario_get { name = "solo"; linearizable = true })
      in
      Alcotest.(check bool)
        "the get finds the put" true
        (Obs.Json.member "found" got = Some (Obs.Json.Bool true)))

(* A replica keeps no simulator trace, so its heap grows only by what
   each operation must keep. The first linearizable get commits a
   barrier (nothing of the leader's term has committed yet); every later
   one is a read-index read, which keeps nothing once answered. *)
let test_heap_per_write () =
  with_cluster ~n:1 (fun ~base:_ ~nodes ->
      let node = wait_leader nodes in
      let c = Client.connect ~timeout:5. (Client.Tcp (Node.service_port node)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let gets k =
        for id = 1 to k do
          ignore
            (expect_ok "linearizable get"
               (Client.call c ~id
                  (Wire.Scenario_get { name = "x"; linearizable = true })))
        done
      in
      let live_bytes () =
        Gc.compact ();
        (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
      in
      gets 1_000;
      let before = live_bytes () in
      let writes = 10_000 in
      gets writes;
      let per_write =
        float_of_int (live_bytes () - before) /. float_of_int writes
      in
      if per_write >= 250. then
        Alcotest.failf "live heap grew %.1f B per write (limit 250 B)" per_write)

(* A leader cut off from every follower cannot know it still leads, so
   its plain reads age like a follower's and are refused once they pass
   the staleness budget. *)
let test_isolated_leader_goes_stale () =
  with_cluster ~n:3 (fun ~base:_ ~nodes ->
      let leader = wait_leader nodes in
      stop_followers nodes leader;
      Thread.delay 1.5;
      let c = Client.connect ~timeout:5. (Client.Tcp (Node.service_port leader)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match
         Client.call c ~id:1 (Wire.Scenario_get { name = "a"; linearizable = false })
       with
      | Error (Wire.Not_leader, msg) ->
          Alcotest.(check string) "refused as stale" "replica too stale for reads" msg
      | Error (code, msg) ->
          Alcotest.failf "expected not_leader, got %s: %s" (Wire.code_string code) msg
      | Ok _ -> Alcotest.fail "an isolated leader served a plain get");
      let status = expect_ok "status" (Client.call c ~id:2 Wire.Replica_status) in
      match Option.bind (Obs.Json.member "staleness_ms" status) Obs.Json.to_float with
      | Some ms when ms >= 1000. -> ()
      | Some ms -> Alcotest.failf "staleness_ms %.0f after 1.5 s alone" ms
      | None -> Alcotest.fail "status carries no staleness_ms")

(* Stopping a replica answers the write it holds: with no quorum and a
   10 s commit timeout, only the stop can end the put. *)
let test_stop_answers_pending_write () =
  with_cluster ~commit_timeout:10. ~n:3 (fun ~base:_ ~nodes ->
      let leader = wait_leader nodes in
      stop_followers nodes leader;
      let c = Client.connect ~timeout:5. (Client.Tcp (Node.service_port leader)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.send c
        [
          Wire.encode_request
            {
              Wire.id = 1;
              query = Wire.Scenario_put { name = "b"; scenario = scenario_b; nonce = 0 };
            };
        ];
      Thread.delay 0.3;
      let t0 = Unix.gettimeofday () in
      stop_nodes nodes;
      let reply = Client.recv ~timeout:5. c in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match Option.map Wire.parse_response reply with
      | Some (Ok { Wire.body = Error (Wire.Shutting_down, _); _ }) -> ()
      | Some _ -> Alcotest.failf "expected shutting_down, got %s" (Option.get reply)
      | None -> Alcotest.fail "the pending put was never answered");
      if elapsed >= 1. then
        Alcotest.failf "the stop answered the put after %.3f s (limit 1 s)" elapsed)

let commit_index node =
  match Obs.Json.member "commit_index" (Node.status_json node) with
  | Some (Obs.Json.Int i) -> i
  | _ -> Alcotest.fail "status carries no commit_index"

let put_a multi =
  ignore
    (expect_ok "put"
       (Client.Multi.call multi ~id:1
          (Wire.Scenario_put { name = "a"; scenario = scenario_a; nonce = 0 })))

let found reply =
  Obs.Json.member "found" reply = Some (Obs.Json.Bool true)

(* Linearizable gets are read-index reads: twenty of them leave every
   replica's commit index where it was, where a barrier per get would
   have added twenty entries. *)
let test_lin_gets_append_nothing () =
  with_cluster ~n:3 (fun ~base ~nodes ->
      ignore (wait_leader nodes);
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      put_a multi;
      let indices () = List.map commit_index (live_nodes nodes) in
      Alcotest.(check bool)
        "every replica learns the put's commit" true
        (poll (fun () -> List.for_all (fun i -> i = 1) (indices ())));
      for id = 2 to 21 do
        Alcotest.(check bool)
          "the get finds the put" true
          (found
             (expect_ok "linearizable get"
                (Client.Multi.call multi ~id
                   (Wire.Scenario_get { name = "a"; linearizable = true }))))
      done;
      (* Heartbeats would carry any new commit to the followers. *)
      Thread.delay 0.3;
      Alcotest.(check (list int)) "commit indices unchanged" [ 1; 1; 1 ] (indices ()))

(* A leader that cannot hear from a quorum cannot confirm a read: with
   both followers stopped, its linearizable get is never served. *)
let test_lin_get_without_quorum () =
  with_cluster ~commit_timeout:0.5 ~n:3 (fun ~base ~nodes ->
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      put_a multi;
      let leader = wait_leader nodes in
      stop_followers nodes leader;
      let c = Client.connect ~timeout:5. (Client.Tcp (Node.service_port leader)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match
        Client.call c ~id:2 (Wire.Scenario_get { name = "a"; linearizable = true })
      with
      | Error (Wire.Deadline_exceeded, _) -> ()
      | Error (code, msg) ->
          Alcotest.failf "expected deadline_exceeded, got %s: %s"
            (Wire.code_string code) msg
      | Ok j ->
          Alcotest.failf "a leader without a quorum answered a linearizable get: %s"
            (Obs.Json.to_string j))

(* A new leader has committed nothing of its term, so it cannot serve a
   read-index read yet: its first linearizable get commits a barrier,
   which also commits the old leader's entries, and finds the last
   acknowledged put. *)
let test_lin_get_after_failover () =
  with_cluster ~n:3 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      put_a multi;
      let old = Node.id leader in
      (match !(nodes.(old)) with
      | Some node ->
          nodes.(old) := None;
          Node.stop node
      | None -> Alcotest.fail "leader slot empty");
      let fresh = wait_leader nodes in
      let c = Client.connect ~timeout:8. (Client.Tcp (Node.service_port fresh)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Alcotest.(check bool)
        "the new leader's first get finds the put" true
        (found
           (expect_ok "linearizable get"
              (Client.call c ~id:2
                 (Wire.Scenario_get { name = "a"; linearizable = true }))));
      Alcotest.(check int) "the get went through a barrier" 2 (commit_index fresh))

(* A leader may send an entry before its own fsync, so followers can
   hold an entry its disk never got. Cut the last entry from the old
   leader's segment: on restart it must take the entry back from the
   others, and every acknowledged put must survive. The put's commit
   needs only one follower, so the cluster stops once both followers
   hold every put: were the last one on one follower alone, cutting it
   from the leader would leave it on a minority, which Raft does not
   promise to keep. *)
let test_leader_missing_last_entry_rejoins () =
  let root = tmp_dir "probcons-replica-early" in
  let names = List.init 5 (Printf.sprintf "p%d") in
  let leader_id =
    with_cluster ~state_dir:root ~n:3 (fun ~base ~nodes ->
        let leader = wait_leader nodes in
        let multi = multi_of ~base ~n:3 () in
        Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
        List.iteri
          (fun i name ->
            ignore
              (expect_ok ("put " ^ name)
                 (Client.Multi.call multi ~id:(i + 1)
                    (Wire.Scenario_put { name; scenario = scenario_a; nonce = 0 }))))
          names;
        (* A replica applies an entry in or after the cycle that logs
           it; that cycle ends with its fsync, and stopping the replica
           waits for the cycle in progress. *)
        Alcotest.(check bool)
          "every replica applies every put" true
          (poll (fun () ->
               List.for_all
                 (fun node ->
                   (Node.state_counts node).State.store_size = List.length names)
                 (live_nodes nodes)));
        Node.id leader)
  in
  let dir = Filename.concat root (string_of_int leader_id) in
  (match Storage.load ~dir with
  | Ok (Some snap) -> (
      match List.rev snap.Storage.log with
      | ({ Raft_types.command = Raft_types.Data seq; _ } : Raft_types.entry) :: kept ->
          Storage.save ~dir
            {
              snap with
              Storage.log = List.rev kept;
              payloads = List.filter (fun (s, _) -> s <> seq) snap.Storage.payloads;
            }
      | _ -> Alcotest.fail "the old leader's last entry is not a put")
  | Ok None | Error _ -> Alcotest.fail "the old leader's segment did not load");
  with_cluster ~state_dir:root ~n:3 (fun ~base ~nodes ->
      ignore (wait_leader nodes);
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      List.iteri
        (fun i name ->
          let got =
            expect_ok ("read back " ^ name)
              (Client.Multi.call multi ~id:(i + 10)
                 (Wire.Scenario_get { name; linearizable = true }))
          in
          Alcotest.(check bool)
            (name ^ " survived") true
            (Obs.Json.member "found" got = Some (Obs.Json.Bool true)))
        names;
      Alcotest.(check bool)
        "replicas converge" true
        (poll ~timeout:20. (fun () ->
             match List.map Node.state_counts (live_nodes nodes) with
             | first :: rest ->
                 List.for_all
                   (fun (c : State.counts) ->
                     c.State.digest = first.State.digest
                     && c.State.applied = first.State.applied)
                   rest
                 && first.State.store_size = 5
             | [] -> false)))

(* Replica-plane queries never enter the compute queue: with both lanes
   busy and the 64-deep queue full of analyses, a put pipelined behind
   them on the same connection is still stored. *)
let test_writes_skip_full_queue () =
  with_cluster ~n:3 (fun ~base:_ ~nodes ->
      let leader = wait_leader nodes in
      let c = Client.connect ~timeout:30. (Client.Tcp (Node.service_port leader)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let analyses = 80 in
      let put_id = analyses in
      Client.send c
        (List.init analyses (fun i ->
             Wire.encode_request
               {
                 Wire.id = i;
                 query =
                   Wire.Analyze
                     {
                       scenario =
                         Probcons.Scenario.uniform ~protocol:"stake" ~n:14
                           ~p:(0.01 +. (float_of_int i *. 1e-4))
                           ();
                     };
               })
        @ [
            Wire.encode_request
              {
                Wire.id = put_id;
                query =
                  Wire.Scenario_put { name = "behind"; scenario = scenario_a; nonce = 0 };
              };
          ]);
      let put = ref None in
      for _ = 0 to analyses do
        match Client.recv ~timeout:30. c with
        | None -> Alcotest.fail "the connection ended before every reply"
        | Some line -> (
            match Wire.parse_response line with
            | Ok { Wire.rid = Some id; body; _ } when id = put_id -> put := Some body
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
      done;
      match !put with
      | Some (Ok j) ->
          Alcotest.(check bool)
            "the put is stored" true
            (Obs.Json.member "stored" j = Some (Obs.Json.Bool true))
      | Some (Error (code, msg)) ->
          Alcotest.failf "the put was refused: %s: %s" (Wire.code_string code) msg
      | None -> Alcotest.fail "the put got no reply")

let os_threads () = Array.length (Sys.readdir "/proc/self/task")

(* A replica starts no thread of its own: its Raft runs on its server's
   reactor, beside the server's lanes. *)
let test_thread_count () =
  if Sys.file_exists "/proc/self/task" then begin
    let before = os_threads () in
    with_cluster ~n:3 (fun ~base ~nodes ->
        ignore (wait_leader nodes);
        let multi = multi_of ~base ~n:3 () in
        Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
        ignore
          (expect_ok "put"
             (Client.Multi.call multi ~id:1
                (Wire.Scenario_put { name = "t"; scenario = scenario_a; nonce = 0 })));
        let added = os_threads () - before in
        if added > 10 then
          Alcotest.failf "three replicas added %d OS threads (limit 10)" added)
  end

(* A seeded chaos plan black-holing every outbound link of the leader
   mid-append must cost leadership, not consistency — a new leader
   emerges, the retried write lands exactly once, and after the link
   heals all replicas converge to identical state. The proxies are the
   test's own: replica [i]'s raft ports start at [base + i*n], so it
   listens at offset [i] and dials peer [j] at offset [j], where a proxy
   forwards to peer [j]'s listener. Service ports sit above the n
   blocks. *)
let test_chaos_blackhole_leader () =
  let n = 3 and seed = 7 in
  let passthrough = Service.Chaos.passthrough_plan ~seed () in
  let base = fresh_base () in
  let block i = base + (i * n) in
  let service_port i = base + (n * n) + i in
  let proxies =
    Array.init n (fun src ->
        List.filter_map
          (fun dst ->
            if dst = src then None
            else
              Some
                (Service.Chaos.start
                   ~plan:{ passthrough with Service.Chaos.seed = seed + (src * 97) + dst }
                   ~listen:(Client.Tcp (block src + dst))
                   ~upstream:(Client.Tcp (block dst + dst))))
          (List.init n Fun.id))
  in
  let set_plan src plan =
    List.iter (fun proxy -> Service.Chaos.set_plan proxy plan) proxies.(src)
  in
  Fun.protect ~finally:(fun () -> Array.iter (List.iter Service.Chaos.stop) proxies)
  @@ fun () ->
  let nodes =
    Array.init n (fun i ->
        ref
          (Some
             (Node.start
                (Node.default_config ~id:i ~n ~base_port:(block i)
                   ~service_port:(service_port i)))))
  in
  Fun.protect ~finally:(fun () -> stop_nodes nodes) (fun () ->
      let leader = wait_leader nodes in
      let leader_id = Node.id leader in
      let multi =
        Client.Multi.create ~timeout:8.
          (List.init n (fun i -> Client.Tcp (service_port i)))
      in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      ignore
        (expect_ok "put before the partition"
           (Client.Multi.call multi ~id:1
              (Wire.Scenario_put { name = "pre"; scenario = scenario_a; nonce = 0 })));
      (* Black-hole the leader's outbound links. *)
      set_plan leader_id { passthrough with Service.Chaos.blackhole_p = 1.0 };
      ignore
        (expect_ok "put during the partition"
           (Client.Multi.call ~timeout:15. multi ~id:2
              (Wire.Scenario_put { name = "mid"; scenario = scenario_b; nonce = 0 })));
      let new_leader = wait_leader nodes in
      Alcotest.(check bool)
        "leadership moved off the black-holed replica" true
        (Node.id new_leader <> leader_id);
      (* Heal and require full convergence with no duplicate apply. *)
      set_plan leader_id passthrough;
      Alcotest.(check bool)
        "replicas converge after healing" true
        (poll ~timeout:20. (fun () ->
             let counts = List.map Node.state_counts (live_nodes nodes) in
             match counts with
             | first :: rest ->
                 List.for_all
                   (fun (c : State.counts) ->
                     c.State.digest = first.State.digest
                     && c.State.store_size = first.State.store_size)
                   rest
                 && first.State.store_size = 2
                 && List.for_all
                      (fun (c : State.counts) -> c.State.missing_payloads = 0)
                      counts
             | [] -> false)))

(* ---- measurement harness helpers ---------------------------------- *)

let markov =
  match Faultmodel.Failure_process.markov ~fail_rate:1.0 ~recover_rate:2.0 with
  | Ok p -> p
  | Error e -> failwith e

let test_driver_schedule () =
  let mk seed =
    Driver.kill_schedule ~seed ~replicas:5 ~process:markov
      ~hours_per_second:0.125 ~duration_seconds:60.
  in
  let a = mk 42 and b = mk 42 and c = mk 43 in
  Alcotest.(check bool) "schedule is seed-deterministic" true (a = b);
  Alcotest.(check bool) "different seeds differ" true (a <> c);
  Alcotest.(check bool) "schedule is non-trivial" true (List.length a > 0);
  let sorted =
    List.for_all2
      (fun (x : Driver.event) (y : Driver.event) ->
        x.Driver.at_seconds <= y.Driver.at_seconds)
      (List.filteri (fun i _ -> i < List.length a - 1) a)
      (List.tl a)
  in
  Alcotest.(check bool) "events sorted by time" true sorted;
  List.iter
    (fun (e : Driver.event) ->
      Alcotest.(check bool)
        "events lie within the run" true
        (e.Driver.at_seconds >= 0. && e.Driver.at_seconds <= 60. /. 0.125 *. 8.))
    a

let test_driver_prediction_needs_a_window () =
  match
    Driver.predicted_windows ~replicas:3 ~process:markov ~hours_per_second:0.125
      ~midpoints_seconds:[]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no window has no prediction"

let driver_config =
  {
    Driver.replicas = 3;
    base_port = 47100;
    seed = 42;
    process = markov;
    hours_per_second = 0.125;
    duration_seconds = 20.;
    window_seconds = 5.;
    probes_per_window = 6;
    tolerance = 0.25;
    state_root = "/tmp/unused";
    child_argv = (fun ~id:_ -> [||]);
    log = ignore;
  }

let test_driver_prediction_and_artifact () =
  let midpoints = [ 2.5; 7.5; 12.5; 17.5 ] in
  match
    Driver.predicted_windows ~replicas:3 ~process:markov ~hours_per_second:0.125
      ~midpoints_seconds:midpoints
  with
  | Error e -> Alcotest.fail e
  | Ok predictions ->
      Alcotest.(check int) "one prediction per window" 4 (List.length predictions);
      List.iter
        (fun p ->
          Alcotest.(check bool) "prediction is a probability" true
            (p >= 0. && p <= 1.))
        predictions;
      let windows =
        List.mapi
          (fun i p ->
            {
              Driver.index = i;
              t_mid_seconds = List.nth midpoints i;
              ok = 5;
              total = 6;
              predicted = p;
            })
          predictions
      in
      let j =
        Driver.artifact driver_config ~windows ~writes_acked:10 ~writes_lost:0 ~kills:3
          ~restarts:2
      in
      Alcotest.(check bool)
        "artifact carries the schema" true
        (Obs.Json.member "schema" j = Some (Obs.Json.String driver_schema));
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (field ^ " present") true
            (Obs.Json.member field j <> None))
        [
          "replicas"; "process"; "windows"; "measured_mean"; "predicted_mean";
          "abs_error"; "tolerance"; "writes_acked"; "writes_lost"; "kills";
          "restarts";
        ]

(* Write one checksum-valid envelope straight to replica [dst]'s raft
   listener, as if [src] sent it. The caller closes the socket once the
   replica has had time to read it. *)
let forge_envelope ~base ~src ~dst msg ~payloads =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET
       (Unix.inet_addr_loopback, Node.raft_port (cluster_config ~base ~n:3 dst) dst));
  let frame =
    Service.Frame.encode ~max_payload_bytes:max_envelope_bytes
      (Replica.Transport.envelope_to_line ~src ~dst msg ~payloads)
  in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  fd

(* Sequence numbers are reused across terms, so the payloads of an
   AppendEntries from an older term, which Raft rejects, must not
   replace the bytes of the entry now at their sequence number. Each
   follower gets a checksum-valid term-0 AppendEntries, from the other
   follower's id, carrying other bytes for the acknowledged put's seq 2.
   Then the leader restarts empty: the new leader applies seq 2, and
   the restarted replica takes its bytes from the new leader. *)
let test_stale_payloads_dropped () =
  with_cluster ~n:3 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      let put id name =
        expect_ok ("put " ^ name)
          (Client.Multi.call multi ~id
             (Wire.Scenario_put { name; scenario = scenario_a; nonce = 0 }))
      in
      ignore (put 1 "pre");
      Alcotest.(check bool)
        "the put goes in at seq 2" true
        (Obs.Json.member "command_seq" (put 2 "key") = Some (Obs.Json.Int 2));
      let stale =
        Command.to_string
          (Command.Put_scenario { name = "key"; scenario = scenario_b; nonce = 0 })
      in
      let old = Node.id leader in
      let followers = List.filter (( <> ) old) [ 0; 1; 2 ] in
      let sockets =
        List.map
          (fun dst ->
            let src = List.find (( <> ) dst) followers in
            forge_envelope ~base ~src ~dst
              (Raft_types.Append_entries
                 {
                   term = 0;
                   leader_id = src;
                   prev_log_index = 1;
                   prev_log_term = 0;
                   entries =
                     [ { Raft_types.term = 0; index = 2; command = Raft_types.Data 2 } ];
                   leader_commit = 0;
                 })
              ~payloads:[ (2, stale) ])
          followers
      in
      Thread.delay 0.3;
      List.iter Unix.close sockets;
      (match !(nodes.(old)) with
      | Some node ->
          nodes.(old) := None;
          Node.stop node
      | None -> Alcotest.fail "leader slot empty");
      nodes.(old) := Some (Node.start (cluster_config ~base ~n:3 old));
      let got =
        expect_ok "linearizable get"
          (Client.Multi.call ~timeout:12. multi ~id:3
             (Wire.Scenario_get { name = "key"; linearizable = true }))
      in
      Alcotest.(check bool)
        "the new leader reads the acknowledged put" true
        (Option.map Probcons.Scenario.of_json (Obs.Json.member "scenario" got)
        = Some (Ok scenario_a));
      Alcotest.(check bool)
        "replicas converge" true
        (poll ~timeout:20. (fun () ->
             match List.map Node.state_counts (live_nodes nodes) with
             | [ first; _; _ ] as counts ->
                 List.for_all
                   (fun (c : State.counts) ->
                     c.State.digest = first.State.digest
                     && c.State.applied = first.State.applied)
                   counts
                 && first.State.store_size = 2
             | _ -> false)))

(* Raft also rejects an AppendEntries of the current term whose previous
   entry is not in the log, and its payloads must not replace the bytes
   of the entry now at their sequence number either. The leader stops
   right after the put at seq 2 is acknowledged, before a heartbeat can
   tell the followers it committed. Each follower then gets a
   checksum-valid AppendEntries in its own term, from the stopped
   leader's id, whose previous entry is at index 50 and which carries
   other bytes for seq 2. The new leader's first linearizable get
   commits a barrier, which applies seq 2. *)
let test_rejected_append_payloads_dropped () =
  with_cluster ~n:3 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      let put id name =
        expect_ok ("put " ^ name)
          (Client.Multi.call multi ~id
             (Wire.Scenario_put { name; scenario = scenario_a; nonce = 0 }))
      in
      ignore (put 1 "pre");
      Alcotest.(check bool)
        "the put goes in at seq 2" true
        (Obs.Json.member "command_seq" (put 2 "key") = Some (Obs.Json.Int 2));
      let old = Node.id leader in
      (match !(nodes.(old)) with
      | Some node ->
          nodes.(old) := None;
          Node.stop node
      | None -> Alcotest.fail "leader slot empty");
      let forged =
        Command.to_string
          (Command.Put_scenario { name = "key"; scenario = scenario_b; nonce = 0 })
      in
      let sockets =
        List.map
          (fun follower ->
            let term = Node.term follower in
            forge_envelope ~base ~src:old ~dst:(Node.id follower)
              (Raft_types.Append_entries
                 {
                   term;
                   leader_id = old;
                   prev_log_index = 50;
                   prev_log_term = term;
                   entries =
                     [ { Raft_types.term; index = 51; command = Raft_types.Data 2 } ];
                   leader_commit = 0;
                 })
              ~payloads:[ (2, forged) ])
          (live_nodes nodes)
      in
      Thread.delay 0.1;
      List.iter Unix.close sockets;
      let got =
        expect_ok "linearizable get"
          (Client.Multi.call ~timeout:12. multi ~id:3
             (Wire.Scenario_get { name = "key"; linearizable = true }))
      in
      Alcotest.(check bool)
        "the new leader reads the acknowledged put" true
        (Option.map Probcons.Scenario.of_json (Obs.Json.member "scenario" got)
        = Some (Ok scenario_a));
      Alcotest.(check bool)
        "at its sequence number" true
        (Obs.Json.member "command_seq" got = Some (Obs.Json.Int 2)))

(* A compute is answered as [serve] answers it and never reaches the
   log: the leader and a follower each answer the same distinct
   analyses, a 64-round horizon among them, with the bytes
   [Router.handle] renders, and no replica's commit index or applied
   count moves. *)
let test_computes_append_nothing () =
  with_cluster ~n:3 (fun ~base:_ ~nodes ->
      let leader = wait_leader nodes in
      let follower = List.find (fun n -> n != leader) (live_nodes nodes) in
      let marks () =
        List.map
          (fun n -> (commit_index n, (Node.state_counts n).State.applied))
          (live_nodes nodes)
      in
      let before = marks () in
      let queries =
        List.map
          (fun scenario -> Wire.Analyze { scenario })
          [
            scenario_a;
            scenario_b;
            Probcons.Scenario.uniform ~protocol:"stake" ~n:14 ~p:0.01 ();
            Probcons.Scenario.with_horizon ~rounds:64 24.
              (Probcons.Scenario.uniform ~protocol:"raft" ~n:5 ~p:0.01 ());
          ]
      in
      List.iter
        (fun node ->
          let c = Client.connect ~timeout:8. (Client.Tcp (Node.service_port node)) in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          List.iteri
            (fun i query ->
              let id = i + 1 in
              let expected =
                match Service.Router.handle query with
                | Ok json -> Wire.encode_ok ~id ~payload:(Obs.Json.to_string json)
                | Error (_, msg) -> Alcotest.failf "the router refused the query: %s" msg
              in
              match
                Client.call_line c ~id (Wire.encode_request { Wire.id; query })
              with
              | Ok body ->
                  Alcotest.(check string) "the reply is the router's" expected body
              | Error (code, msg) ->
                  Alcotest.failf "analyze failed: %s: %s" (Wire.code_string code) msg)
            queries)
        [ leader; follower ];
      (* Heartbeats would carry any new commit to the followers. *)
      Thread.delay 0.3;
      Alcotest.(check (list (pair int int)))
        "commit indices and applied counts unchanged" before (marks ()))

(* Records that pass their checksum but are malformed do not load: the
   checksum guards against damage, the decoder against the rest. *)
let test_storage_record_decoder () =
  let dir = tmp_dir "probcons-replica-records" in
  let frame words tail =
    Service.Frame.encode
      (Raft_codec.seal (fun buf ->
           List.iter (Raft_codec.add_int buf) words;
           Buffer.add_string buf tail))
  in
  let load words tail =
    write_file (Storage.path ~dir) (frame [] storage_schema ^ frame words tail);
    Storage.load ~dir
  in
  Alcotest.(check bool)
    "a well-formed entry loads" true
    (load [ 1; 1; 1; 0; 5; 3 ] "abc"
    = Ok
        (Some
           {
             Storage.term = 0;
             voted_for = None;
             log = [ { Raft_types.term = 1; index = 1; command = Raft_types.Data 5 } ];
             payloads = [ (5, "abc") ];
           }));
  List.iter
    (fun (what, words, tail) ->
      match load words tail with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s loaded" what)
    [
      ("an unknown record tag", [ 3 ], "");
      ("a negative term", [ 0; -1; -1 ], "");
      ("a vote below -1", [ 0; 1; -2 ], "");
      ("an entry at index 0", [ 1; 1; 0; 0; 5; -1 ], "");
      ("an unknown command tag", [ 1; 1; 1; 2; 5; -1 ], "");
      ("a payload length below -1", [ 1; 1; 1; 0; 5; -2 ], "");
      ("a payload length past the end of the frame", [ 1; 1; 1; 0; 5; 4 ], "abc");
      ("a truncate from 0", [ 2; 0 ], "");
      ("trailing bytes", [ 2; 1 ], "x");
    ]

(* Sequence numbers are reused across terms, so a write waits for its
   (term, seq). The leader appends the put [mine] at seq 2 with both
   followers stopped, then takes a checksum-valid AppendEntries, from a
   stopped follower's id and one term up, that replaces index 2 with
   another put at seq 2 and commits it: what a new leader sends the old
   one when a partition heals. The deposed leader must not acknowledge
   [mine] with the other command's reply. *)
let test_deposed_leader_acks_own_write () =
  with_cluster ~n:3 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      Alcotest.(check bool)
        "the first put goes in at seq 1" true
        (Obs.Json.member "command_seq"
           (expect_ok "put pre"
              (Client.Multi.call multi ~id:1
                 (Wire.Scenario_put { name = "pre"; scenario = scenario_a; nonce = 0 })))
        = Some (Obs.Json.Int 1));
      let term = Node.term leader in
      stop_followers nodes leader;
      let c = Client.connect ~timeout:5. (Client.Tcp (Node.service_port leader)) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.send c
        [
          Wire.encode_request
            {
              Wire.id = 2;
              query = Wire.Scenario_put { name = "mine"; scenario = scenario_a; nonce = 0 };
            };
        ];
      Thread.delay 0.3;
      let src = List.find (( <> ) (Node.id leader)) [ 0; 1; 2 ] in
      let other =
        Command.to_string
          (Command.Put_scenario { name = "other"; scenario = scenario_b; nonce = 0 })
      in
      let socket =
        forge_envelope ~base ~src ~dst:(Node.id leader)
          (Raft_types.Append_entries
             {
               term = term + 1;
               leader_id = src;
               prev_log_index = 1;
               prev_log_term = term;
               entries =
                 [ { Raft_types.term = term + 1; index = 2; command = Raft_types.Data 2 } ];
               leader_commit = 2;
             })
          ~payloads:[ (2, other) ]
      in
      let reply = Client.recv ~timeout:5. c in
      Unix.close socket;
      match Option.map Wire.parse_response reply with
      | Some (Ok { Wire.body = Error (Wire.Not_leader, _); _ }) -> ()
      | Some _ -> Alcotest.failf "expected not_leader, got %s" (Option.get reply)
      | None -> Alcotest.fail "the put was never answered")

(* A replica that cannot be started ends the run with an error naming
   it, not an exception. *)
let test_driver_cannot_start () =
  let dir = tmp_dir "probcons-driver-start" in
  let missing = Filename.concat dir "no-such-replica" in
  match
    Driver.run
      { driver_config with Driver.state_root = dir; child_argv = (fun ~id:_ -> [| missing |]) }
  with
  | Error msg ->
      Alcotest.(check bool)
        ("the error names replica 0: " ^ msg)
        true
        (contains msg "cannot start replica 0")
  | Ok _ -> Alcotest.fail "a run with no replica measured something"

let suite =
  [
    Alcotest.test_case "command codec" `Quick test_command_codec;
    Alcotest.test_case "raft message codec" `Quick test_raft_codec;
    Alcotest.test_case "transport envelope" `Quick test_transport_envelope;
    Alcotest.test_case "transport envelope rejects bad bytes" `Quick
      test_transport_envelope_rejects;
    Alcotest.test_case "transport drops oversized envelopes" `Quick
      test_transport_oversized;
    Alcotest.test_case "state machine dedup" `Quick test_state_dedup;
    Alcotest.test_case "durable storage round-trip" `Quick test_storage_roundtrip;
    Alcotest.test_case "segment file crash cuts" `Quick test_storage_crash_cut;
    Alcotest.test_case "wire replica query kinds" `Quick test_wire_replica_kinds;
    Alcotest.test_case "cluster put/get/linearizable" `Slow test_e2e_put_get;
    Alcotest.test_case "leader failover and crash restart" `Slow
      test_failover_and_restart;
    Alcotest.test_case "commit deadline without a quorum" `Slow
      test_commit_deadline;
    Alcotest.test_case "chaos blackhole costs leadership not consistency" `Slow
      test_chaos_blackhole_leader;
    Alcotest.test_case "a pending write holds no worker lane" `Slow
      test_pending_write_frees_lane;
    Alcotest.test_case "a lone replica answers writes" `Slow test_single_replica;
    Alcotest.test_case "live heap per write" `Slow test_heap_per_write;
    Alcotest.test_case "three replicas, few threads" `Slow test_thread_count;
    Alcotest.test_case "an isolated leader's plain reads go stale" `Slow
      test_isolated_leader_goes_stale;
    Alcotest.test_case "stopping a replica answers its pending write" `Slow
      test_stop_answers_pending_write;
    Alcotest.test_case "a leader missing its last append rejoins" `Slow
      test_leader_missing_last_entry_rejoins;
    Alcotest.test_case "replica writes skip a full compute queue" `Slow
      test_writes_skip_full_queue;
    Alcotest.test_case "linearizable gets append nothing" `Slow
      test_lin_gets_append_nothing;
    Alcotest.test_case "no linearizable get without a quorum" `Slow
      test_lin_get_without_quorum;
    Alcotest.test_case "a new leader's linearizable get finds the last put" `Slow
      test_lin_get_after_failover;
    Alcotest.test_case "kill schedule determinism" `Quick test_driver_schedule;
    Alcotest.test_case "prediction needs a window" `Quick
      test_driver_prediction_needs_a_window;
    Alcotest.test_case "prediction and artifact shape" `Quick
      test_driver_prediction_and_artifact;
    Alcotest.test_case "a stale leader's payloads are dropped" `Slow
      test_stale_payloads_dropped;
    Alcotest.test_case "malformed segment records do not load" `Quick
      test_storage_record_decoder;
    Alcotest.test_case "a rejected append's payloads are dropped" `Slow
      test_rejected_append_payloads_dropped;
    Alcotest.test_case "a replica's computes append nothing" `Slow
      test_computes_append_nothing;
    Alcotest.test_case "a deposed leader acknowledges only its own write" `Slow
      test_deposed_leader_acks_own_write;
    Alcotest.test_case "a replica that cannot start is a run error" `Quick
      test_driver_cannot_start;
  ]
