(* The wire/3 binary framing codec: encode/decode round-trips, fuzzed
   incremental decoding at every split point, and typed rejection of
   malformed headers. *)

open Service

let frame_error =
  Alcotest.testable (Fmt.of_to_string Frame.error_message) ( = )

(* Decode a whole byte string by feeding it in the given chunk sizes,
   collecting every complete frame. *)
let decode_chunked ~chunk bytes =
  let d = Frame.create () in
  let len = String.length bytes in
  let buf = Bytes.of_string bytes in
  let frames = ref [] in
  let err = ref None in
  let drain () =
    let rec go () =
      match Frame.next d with
      | Ok (Some body) ->
          frames := body :: !frames;
          go ()
      | Ok None -> ()
      | Error e -> if !err = None then err := Some e
    in
    go ()
  in
  let off = ref 0 in
  while !off < len && !err = None do
    let k = min chunk (len - !off) in
    Frame.feed d (Bytes.sub buf !off k) k;
    off := !off + k;
    drain ()
  done;
  (List.rev !frames, !err)

let test_header_layout () =
  let f = Frame.encode "abc" in
  Alcotest.(check int) "total length" (Frame.header_bytes + 3) (String.length f);
  Alcotest.(check char) "magic" Frame.magic f.[0];
  Alcotest.(check char) "version byte" '\x03' f.[1];
  (* u32 big-endian length *)
  Alcotest.(check int) "length prefix" 3
    ((Char.code f.[2] lsl 24) lor (Char.code f.[3] lsl 16)
    lor (Char.code f.[4] lsl 8) lor Char.code f.[5]);
  Alcotest.(check string) "payload verbatim" "abc"
    (String.sub f Frame.header_bytes 3);
  (* The magic can never open a JSON body, so stray text on a framed
     socket fails on its first byte. *)
  Alcotest.(check bool) "magic is not printable JSON" true
    (Char.code Frame.magic > 0x7F)

let test_roundtrip_simple () =
  List.iter
    (fun body ->
      let frames, err = decode_chunked ~chunk:4096 (Frame.encode body) in
      Alcotest.(check (option frame_error)) "no error" None err;
      Alcotest.(check (list string)) "round-trips" [ body ] frames)
    [ "x"; "{\"v\": 3}"; String.make 100_000 'q'; "\x00\xff\xfb binary ok" ]

let test_multiple_frames_one_buffer () =
  let bodies = [ "one"; "two"; "{\"three\": 3}"; "4" ] in
  let stream = String.concat "" (List.map Frame.encode bodies) in
  let frames, err = decode_chunked ~chunk:4096 stream in
  Alcotest.(check (option frame_error)) "no error" None err;
  Alcotest.(check (list string)) "all frames out" bodies frames

(* Incremental decoding must be split-invariant: feeding the stream
   byte by byte — or at any chunk size — yields exactly the same
   frames. This is the property the reactor relies on, since the
   kernel hands it arbitrary read boundaries. *)
let test_split_at_every_byte () =
  let bodies = [ "alpha"; "{\"v\": 3, \"id\": 7}"; "z" ] in
  let stream = String.concat "" (List.map Frame.encode bodies) in
  for chunk = 1 to String.length stream do
    let frames, err = decode_chunked ~chunk stream in
    if err <> None || frames <> bodies then
      Alcotest.failf "chunk size %d broke decoding" chunk
  done

let test_bad_magic () =
  let frames, err = decode_chunked ~chunk:1 "{\"v\": 3}" in
  Alcotest.(check (list string)) "no frames" [] frames;
  (match err with
  | Some (Frame.Bad_magic b) ->
      Alcotest.(check int) "offending byte" (Char.code '{') b
  | other ->
      Alcotest.failf "expected Bad_magic, got %s"
        (match other with
        | None -> "no error"
        | Some e -> Frame.error_message e))

let test_bad_version () =
  let f = Bytes.of_string (Frame.encode "body") in
  Bytes.set f 1 '\x02';
  let frames, err = decode_chunked ~chunk:4096 (Bytes.to_string f) in
  Alcotest.(check (list string)) "no frames" [] frames;
  Alcotest.(check (option frame_error)) "typed error"
    (Some (Frame.Bad_version 2)) err

let test_zero_length () =
  let b = Bytes.create Frame.header_bytes in
  Bytes.set b 0 Frame.magic;
  Bytes.set b 1 '\x03';
  Bytes.set_int32_be b 2 0l;
  let frames, err = decode_chunked ~chunk:4096 (Bytes.to_string b) in
  Alcotest.(check (list string)) "no frames" [] frames;
  Alcotest.(check (option frame_error)) "typed error" (Some Frame.Zero_length)
    err

let test_oversized () =
  let b = Bytes.create Frame.header_bytes in
  Bytes.set b 0 Frame.magic;
  Bytes.set b 1 '\x03';
  Bytes.set_int32_be b 2 (Int32.of_int (Frame.max_payload_bytes + 1));
  let frames, err = decode_chunked ~chunk:4096 (Bytes.to_string b) in
  Alcotest.(check (list string)) "no frames" [] frames;
  (match err with
  | Some (Frame.Oversized n) ->
      Alcotest.(check int) "reported size" (Frame.max_payload_bytes + 1) n
  | other ->
      Alcotest.failf "expected Oversized, got %s"
        (match other with
        | None -> "no error"
        | Some e -> Frame.error_message e));
  (* The declared size is rejected from the header alone — no payload
     bytes were needed (the attack this bound exists for is a 4 GiB
     allocation from a 6-byte header). *)
  match Frame.encode (String.make (Frame.max_payload_bytes + 1) 'x') with
  | _ -> Alcotest.fail "encode must refuse oversized payloads"
  | exception Invalid_argument _ -> ()

let test_error_latches () =
  (* After a framing error the decoder stays dead: feeding more bytes
     cannot resurrect a corrupted stream. *)
  let d = Frame.create () in
  let junk = Bytes.of_string "junk" in
  Frame.feed d junk (Bytes.length junk);
  (match Frame.next d with
  | Error (Frame.Bad_magic _) -> ()
  | _ -> Alcotest.fail "junk should be Bad_magic");
  let good = Bytes.of_string (Frame.encode "fine") in
  Frame.feed d good (Bytes.length good);
  (match Frame.next d with
  | Error (Frame.Bad_magic _) -> ()
  | _ -> Alcotest.fail "error must latch");
  (* [reset] is the only way back. *)
  Frame.reset d;
  Frame.feed d good (Bytes.length good);
  match Frame.next d with
  | Ok (Some "fine") -> ()
  | _ -> Alcotest.fail "reset decoder must decode again"

(* QCheck: decode ∘ encode = Ok for arbitrary payloads, across
   arbitrary chunk sizes. *)
let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame decode∘encode = Ok"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 8)
           (string_of_size (Gen.int_range 1 300)))
        (int_range 1 64))
    (fun (bodies, chunk) ->
      let bodies = List.filter (fun b -> String.length b > 0) bodies in
      let stream = String.concat "" (List.map Frame.encode bodies) in
      let frames, err = decode_chunked ~chunk stream in
      err = None && frames = bodies)

let suite =
  [
    Alcotest.test_case "header layout" `Quick test_header_layout;
    Alcotest.test_case "round-trip" `Quick test_roundtrip_simple;
    Alcotest.test_case "multiple frames per buffer" `Quick
      test_multiple_frames_one_buffer;
    Alcotest.test_case "split at every byte" `Quick test_split_at_every_byte;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "bad version" `Quick test_bad_version;
    Alcotest.test_case "zero length" `Quick test_zero_length;
    Alcotest.test_case "oversized" `Quick test_oversized;
    Alcotest.test_case "error latches until reset" `Quick test_error_latches;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
