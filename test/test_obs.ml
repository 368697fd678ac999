(* Tests for the observability layer: metrics registry semantics,
   histogram percentile accuracy, snapshot JSON round-trips, and the
   domain-sharding merge invariant. *)

open Probcons

let find_exn snap ~family ~name =
  match Obs.Metrics.find snap ~family ~name with
  | Some v -> v
  | None -> Alcotest.failf "metric %s/%s missing from snapshot" family name

let counter_value = function
  | Obs.Metrics.Counter n -> n
  | _ -> Alcotest.fail "expected counter"

let gauge_value = function
  | Obs.Metrics.Gauge n -> n
  | _ -> Alcotest.fail "expected gauge"

let hist_value = function
  | Obs.Metrics.Histogram h -> h
  | _ -> Alcotest.fail "expected histogram"

(* --- Registry basics ------------------------------------------------------- *)

let test_counter_and_gauge () =
  let r = Obs.Metrics.create ~enabled:true () in
  let c = Obs.Metrics.counter ~registry:r ~family:"t" "hits" in
  let g = Obs.Metrics.gauge ~registry:r ~family:"t" "depth" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Obs.Metrics.set g 7;
  Obs.Metrics.set g 3;
  let snap = Obs.Metrics.snapshot ~registry:r () in
  Alcotest.(check int) "counter sums" 42
    (counter_value (find_exn snap ~family:"t" ~name:"hits"));
  (* Within a shard a gauge is last-write-wins; the max-over-shards
     merge only arbitrates between domains. *)
  Alcotest.(check int)
    "gauge keeps last written value" 3
    (gauge_value (find_exn snap ~family:"t" ~name:"depth"));
  (* Re-requesting the same metric returns the same cell. *)
  let c' = Obs.Metrics.counter ~registry:r ~family:"t" "hits" in
  Obs.Metrics.incr c';
  let snap = Obs.Metrics.snapshot ~registry:r () in
  Alcotest.(check int) "idempotent registration" 43
    (counter_value (find_exn snap ~family:"t" ~name:"hits"));
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics.gauge: t.hits already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge ~registry:r ~family:"t" "hits"))

let test_disabled_registry_records_nothing () =
  let r = Obs.Metrics.create ~enabled:false () in
  let c = Obs.Metrics.counter ~registry:r ~family:"t" "hits" in
  let h = Obs.Metrics.histogram ~registry:r ~family:"t" "lat" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 1.5;
  Alcotest.(check bool) "histogram reports dead" false (Obs.Metrics.live h);
  let snap = Obs.Metrics.snapshot ~registry:r () in
  Alcotest.(check int) "counter untouched" 0
    (counter_value (find_exn snap ~family:"t" ~name:"hits"));
  Alcotest.(check int) "histogram untouched" 0
    (hist_value (find_exn snap ~family:"t" ~name:"lat")).count;
  (* The process-global registry, off until switched on, then records. *)
  let g = Obs.Metrics.counter ~family:"test-toggle" "hits" in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.incr g;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.set_enabled false;
  Alcotest.(check int) "records after enable" 1
    (counter_value (find_exn snap ~family:"test-toggle" ~name:"hits"))

let test_disabled_registry_allocates_nothing () =
  (* DESIGN 5b's "off means free": on a disabled registry each record
     call is a flag load and a branch, so 100k calls of each allocate
     no minor-heap words. The observed float is preallocated, so
     passing it boxes nothing. *)
  let r = Obs.Metrics.create ~enabled:false () in
  let c = Obs.Metrics.counter ~registry:r ~family:"t" "hits" in
  let g = Obs.Metrics.gauge ~registry:r ~family:"t" "depth" in
  let h = Obs.Metrics.histogram ~registry:r ~family:"t" "lat" in
  let x = 1.5 in
  let minor_words f =
    let before = Gc.minor_words () in
    for _ = 1 to 100_000 do
      f ()
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0.
        (minor_words f))
    [
      ("incr", fun () -> Obs.Metrics.incr c);
      ("add", fun () -> Obs.Metrics.add c 3);
      ("set", fun () -> Obs.Metrics.set g 7);
      ("observe", fun () -> Obs.Metrics.observe h x);
    ]

(* --- Histogram accuracy ---------------------------------------------------- *)

let test_histogram_percentiles () =
  let r = Obs.Metrics.create ~enabled:true () in
  let h = Obs.Metrics.histogram ~registry:r ~family:"t" "lat" in
  for v = 1 to 1000 do
    Obs.Metrics.observe h (float_of_int v)
  done;
  let s = hist_value (find_exn (Obs.Metrics.snapshot ~registry:r ()) ~family:"t" ~name:"lat") in
  Alcotest.(check int) "count" 1000 s.count;
  (* Every summary statistic is reconstructed from bucket
     representatives; quarter-power-of-two buckets guarantee
     <= 2^(1/8)-1 ~ 9% relative error. Check against exact answers. *)
  let rel_ok name got expect =
    let rel = Float.abs (got -. expect) /. expect in
    if rel > 0.10 then
      Alcotest.failf "%s: %g vs exact %g (rel err %.3f)" name got expect rel
  in
  rel_ok "min" s.min 1.;
  rel_ok "max" s.max 1000.;
  rel_ok "sum" s.sum 500500.;
  rel_ok "p50" s.p50 500.;
  rel_ok "p90" s.p90 900.;
  rel_ok "p99" s.p99 990.

let test_histogram_extremes () =
  let r = Obs.Metrics.create ~enabled:true () in
  let h = Obs.Metrics.histogram ~registry:r ~family:"t" "lat" in
  Obs.Metrics.observe h 0.;
  Obs.Metrics.observe h (-3.);
  Obs.Metrics.observe h Float.nan;
  Obs.Metrics.observe h 1e40;
  Obs.Metrics.observe h 1e-40;
  let s = hist_value (find_exn (Obs.Metrics.snapshot ~registry:r ()) ~family:"t" ~name:"lat") in
  Alcotest.(check int) "all observations bucketed" 5 s.count;
  Alcotest.(check bool) "summary stays finite" true
    (Float.is_finite s.p50 && Float.is_finite s.p99)

(* --- JSON round-trip ------------------------------------------------------- *)

let test_snapshot_jsonl_roundtrip () =
  let r = Obs.Metrics.create ~enabled:true () in
  let c = Obs.Metrics.counter ~registry:r ~family:"sim" "events" in
  let g = Obs.Metrics.gauge ~registry:r ~family:"sim" "queue" in
  let h = Obs.Metrics.histogram ~registry:r ~family:"net" "latency" in
  Obs.Metrics.add c 123;
  Obs.Metrics.set g 17;
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.25; 80.; 1000.5 ];
  let snap = Obs.Metrics.snapshot ~registry:r () in
  let path = Filename.temp_file "probcons-metrics" ".jsonl" in
  Obs.Metrics.write_jsonl ~path snap;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match Obs.Metrics.of_jsonl text with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok snap' ->
      Alcotest.(check int) "same cardinality" (List.length snap)
        (List.length snap');
      List.iter2
        (fun (a : Obs.Metrics.sample) (b : Obs.Metrics.sample) ->
          Alcotest.(check string) "family" a.family b.family;
          Alcotest.(check string) "name" a.name b.name;
          match (a.value, b.value) with
          | Counter x, Counter y -> Alcotest.(check int) "counter" x y
          | Gauge x, Gauge y -> Alcotest.(check int) "gauge" x y
          | Histogram x, Histogram y ->
              Alcotest.(check int) "count" x.count y.count;
              Alcotest.(check (float 1e-9)) "sum" x.sum y.sum;
              Alcotest.(check (float 1e-9)) "p99" x.p99 y.p99
          | _ -> Alcotest.fail "kind changed across round-trip")
        snap snap'

let test_json_parser_rejects_garbage () =
  (match Obs.Json.of_string "{\"a\": [1, 2,]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing comma accepted");
  (match Obs.Json.of_string "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (* A \u escape is exactly four hex digits (RFC 8259): OCaml's
     integer parser skips underscores, JSON does not. *)
  List.iter
    (fun doc ->
      match Obs.Json.of_string doc with
      | Error msg ->
          Alcotest.(check string) ("rejects " ^ doc)
            "JSON parse error at offset 7: invalid \\u escape" msg
      | Ok _ -> Alcotest.failf "%s accepted" doc)
    [ {|"\u0_41"|}; {|"\u00_e"|} ];
  (match Obs.Json.of_string {|"\u0041"|} with
  | Ok (Obs.Json.String s) -> Alcotest.(check string) "\\u0041" "A" s
  | Ok _ | Error _ -> Alcotest.fail "\\u0041 did not parse to \"A\"");
  (* RFC 8259 numbers: no leading zero, and a '.' needs a digit on
     each side. Wire bodies are untrusted, so a request id is no
     exception. *)
  List.iter
    (fun doc ->
      match Obs.Json.of_string doc with
      | Error msg ->
          Alcotest.(check string) ("rejects " ^ doc)
            "JSON parse error at offset 0: malformed number" msg
      | Ok _ -> Alcotest.failf "%s accepted" doc)
    [ "007"; "-01"; "1."; "1.e5"; "-.5" ];
  (match Service.Wire.parse_request {|{"v": 3, "id": 007, "kind": "ping"}|} with
  | Error (None, Service.Wire.Parse_error, msg) ->
      Alcotest.(check string) "wire id 007"
        "JSON parse error at offset 15: malformed number" msg
  | Error _ | Ok _ -> Alcotest.fail "a request with id 007 was not a parse error");
  match Obs.Json.of_string "{\"x\": -1.5e3, \"y\": \"\\u00e9\"}" with
  | Error msg -> Alcotest.failf "valid doc rejected: %s" msg
  | Ok doc ->
      Alcotest.(check (option (float 1e-9))) "number" (Some (-1500.))
        (Option.bind (Obs.Json.member "x" doc) Obs.Json.to_float);
      Alcotest.(check (option string)) "unicode escape" (Some "\xc3\xa9")
        (Option.bind (Obs.Json.member "y" doc) Obs.Json.to_string_opt)

(* [to_int] feeds wire validation (counts, n, rows/cols), so a Float
   outside the exactly-representable integer range must be rejected
   rather than converted to an unspecified int. *)
let test_json_to_int_range () =
  Alcotest.(check (option int)) "int passthrough" (Some 42)
    (Obs.Json.to_int (Obs.Json.Int 42));
  Alcotest.(check (option int)) "integral float" (Some (-7))
    (Obs.Json.to_int (Obs.Json.Float (-7.)));
  Alcotest.(check (option int)) "2^53 is exact" (Some 9007199254740992)
    (Obs.Json.to_int (Obs.Json.Float 9007199254740992.));
  Alcotest.(check (option int)) "non-integral" None
    (Obs.Json.to_int (Obs.Json.Float 1.5));
  Alcotest.(check (option int)) "1e30 rejected" None
    (Obs.Json.to_int (Obs.Json.Float 1e30));
  Alcotest.(check (option int)) "-1e30 rejected" None
    (Obs.Json.to_int (Obs.Json.Float (-1e30)));
  Alcotest.(check (option int)) "infinity rejected" None
    (Obs.Json.to_int (Obs.Json.Float Float.infinity));
  Alcotest.(check (option int)) "nan rejected" None
    (Obs.Json.to_int (Obs.Json.Float Float.nan))

(* Wire payloads carry user-provided strings, so the printer must
   escape every control character (U+0000–U+001F), quotes and
   backslashes into valid JSON that parses back to the same bytes. *)
let test_json_string_escaping () =
  let roundtrip s =
    let rendered = Obs.Json.to_string (Obs.Json.String s) in
    String.iter
      (fun c ->
        if Char.code c < 0x20 then
          Alcotest.failf "raw control byte 0x%02x leaked into %S" (Char.code c)
            rendered)
      rendered;
    match Obs.Json.of_string rendered with
    | Error msg -> Alcotest.failf "escaped %S does not re-parse: %s" rendered msg
    | Ok (Obs.Json.String s') ->
        Alcotest.(check string) (Printf.sprintf "round-trip of %S" s) s s'
    | Ok _ -> Alcotest.fail "string re-parsed as non-string"
  in
  (* Every control character, one at a time and embedded mid-string. *)
  for code = 0 to 0x1F do
    let c = Char.chr code in
    roundtrip (String.make 1 c);
    roundtrip (Printf.sprintf "a%cb" c)
  done;
  roundtrip "quote\" backslash\\ slash/ tab\t newline\n";
  roundtrip "\xc3\xa9 utf-8 passes through";
  (* The short forms are used where JSON defines them. *)
  Alcotest.(check string) "short escapes" "\"\\b\\f\\n\\r\\t\""
    (Obs.Json.to_string (Obs.Json.String "\b\012\n\r\t"));
  Alcotest.(check string) "\\u form for other controls" "\"\\u0000\\u001f\""
    (Obs.Json.to_string (Obs.Json.String "\x00\x1f"));
  (* Object keys are escaped the same way. *)
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Obj [ ("k\n\"", Obs.Json.Int 1) ])) with
  | Ok (Obs.Json.Obj [ (k, _) ]) -> Alcotest.(check string) "escaped key" "k\n\"" k
  | Ok _ | Error _ -> Alcotest.fail "escaped object key did not round-trip"

(* Untrusted socket input: nesting past the limit must come back as a
   structured [Error], never a stack overflow. *)
let test_json_depth_limit () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Obs.Json.of_string (nested 513) with
  | Ok _ -> Alcotest.fail "input past the limit accepted"
  | Error _ -> ());
  (match Obs.Json.of_string (nested 512) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "input at the limit rejected: %s" msg);
  (* A hostile megabyte of open brackets parses to an error, fast. *)
  match Obs.Json.of_string (String.make 1_000_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbounded nesting accepted"

(* Fuzz: the parser must never raise, whatever bytes arrive. *)
let prop_parser_never_raises =
  QCheck.Test.make ~count:2000 ~name:"of_string never raises on arbitrary bytes"
    QCheck.(string_gen Gen.(char_range '\x00' '\xff'))
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "of_string %S raised %s" s (Printexc.to_string e))

(* Fuzz: printing any generated tree and parsing it back yields the
   same tree. Numbers normalize Int/Float (integral floats re-parse as
   Int), so equality is up to that identification. *)
let json_tree_gen =
  let open QCheck.Gen in
  let any_string = string_size ~gen:(char_range '\x00' '\xff') (int_bound 12) in
  (* Floats of every magnitude, so printing needs all 17 digits and
     the exponent forms; non-finite ones become [Null], as printed. *)
  let any_float =
    oneof [ float_bound_inclusive 1e6; float; map (fun v -> v *. 1e-300) float ]
  in
  fix (fun self n ->
      let leaf =
        oneof
          [
            return Obs.Json.Null;
            map (fun b -> Obs.Json.Bool b) bool;
            map (fun i -> Obs.Json.Int i) int;
            map Obs.Json.number any_float;
            map (fun s -> Obs.Json.String s) any_string;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map (fun l -> Obs.Json.List l)
                (list_size (int_bound 4) (self (n / 2))) );
            ( 1,
              map (fun kvs -> Obs.Json.Obj kvs)
                (list_size (int_bound 4) (pair any_string (self (n / 2)))) );
          ])

let json_gen = QCheck.Gen.sized json_tree_gen

let rec json_equal a b =
  let open Obs.Json in
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           x y
  | _ -> false

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"to_string/of_string round-trips trees"
    (QCheck.make ~print:(fun t -> Obs.Json.to_string t) json_gen)
    (fun tree ->
      match Obs.Json.of_string (Obs.Json.to_string tree) with
      | Ok tree' -> json_equal tree tree'
      | Error msg ->
          QCheck.Test.fail_reportf "rendered %S failed to parse: %s"
            (Obs.Json.to_string tree) msg)

(* Differential: [Obs.Json.of_string] must accept and return exactly
   what the byte-at-a-time reference ([Json_reference]) does — the same
   tree, floats bit for bit, or the same error message and offset.
   Inputs are token soups over a JSON alphabet, and printed documents
   (17-digit floats, escaped strings, nesting) cut, spliced and
   truncated at random. The intended differences: the reference
   accepts an underscore inside a \u escape, and numbers RFC 8259
   forbids (a leading zero, or a '.' with no digit before or after
   it), so inputs holding either are exempt. *)
let differential_tokens =
  [ "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; " "; "\t"; "\n"; "\r"; "-"; "+";
    "."; "e"; "E"; "0"; "1"; "7"; "9"; "a"; "F"; "u"; "t"; "x"; "/"; "_";
    "\x00"; "\x1f"; "\xc3\xa9"; "true"; "false"; "null"; "tru"; "nul";
    "\\u00e9"; "\\uD834"; "\\udfff"; "\\u0041"; "\\u0_41"; "\\u00_e";
    "\\uzz12"; "\\u12"; "\\q"; "\\/"; "1.5e-3"; "-0"; "01"; "1."; "1e";
    "1e+"; "-e5"; "0.1"; "1e400"; "-1e-400"; "123456789012345678";
    "-123456789012345678"; "1234567890123456789"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "12345678901234567890123"; "0.30000000000000004"; "-2.2250738585072014e-308" ]

let differential_input =
  let open QCheck.Gen in
  let token = oneofl differential_tokens in
  let soup = map (String.concat "") (list_size (int_bound 30) token) in
  let edit s =
    let n = String.length s in
    let* i = int_bound n in
    let* tok = token in
    let tail k = String.sub s k (n - k) in
    oneofl
      [
        String.sub s 0 i;
        String.sub s 0 i ^ tok ^ tail i;
        (if i < n then String.sub s 0 i ^ tok ^ tail (i + 1) else s);
        (if i < n then String.sub s 0 i ^ tail (i + 1) else s);
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let printed =
    let* doc = map Obs.Json.to_string (sized_size (int_bound 12) json_tree_gen) in
    let* k = int_bound 3 in
    edits k doc
  in
  (* A quarter of the inputs sit inside 500 to 512 brackets, so their
     own nesting crosses the 512-container limit now and then. *)
  let* depth = frequency [ (3, return 0); (1, int_range 500 512) ] in
  let* s = frequency [ (1, soup); (2, printed) ] in
  return (String.make depth '[' ^ s ^ String.make depth ']')

let rec same_tree a b =
  let open Obs.Json in
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List x, List y -> List.length x = List.length y && List.for_all2 same_tree x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && same_tree v v') x y
  | (Null | Bool _ | Int _ | String _), _ -> a = b
  | (Float _ | List _ | Obj _), _ -> false

let underscore_in_u_escape s =
  let n = String.length s in
  let rec from i =
    i + 1 < n
    && ((s.[i] = '\\' && s.[i + 1] = 'u'
        && String.contains (String.sub s (i + 2) (min 4 (n - i - 2))) '_')
       || from (i + 1))
  in
  from 0

(* Whether [s] holds, outside a string, a number RFC 8259 forbids. A
   number is scanned as both parsers scan it:
   [-]digits[.digits][(e|E)[+-]digits]. *)
let forbidden_number s =
  let n = String.length s in
  let rec digits i = if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i in
  let rec outside i =
    i < n
    && match s.[i] with
       | '"' -> inside (i + 1)
       | '-' | '0' .. '9' -> number i
       | _ -> outside (i + 1)
  and inside i =
    i < n
    && match s.[i] with
       | '"' -> outside (i + 1)
       | '\\' -> inside (i + 2)
       | _ -> inside (i + 1)
  and number i =
    let first = if s.[i] = '-' then i + 1 else i in
    let int_end = digits first in
    let leading_zero = int_end - first > 1 && s.[first] = '0' in
    let dot = int_end < n && s.[int_end] = '.' in
    let frac_end = if dot then digits (int_end + 1) else int_end in
    let bare_dot = dot && (int_end = first || frac_end = int_end + 1) in
    let exp_end =
      if frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then
        let j = frac_end + 1 in
        digits (if j < n && (s.[j] = '+' || s.[j] = '-') then j + 1 else j)
      else frac_end
    in
    leading_zero || bare_dot || outside (max exp_end (i + 1))
  in
  outside 0

let prop_parser_matches_reference =
  QCheck.Test.make ~count:10_000 ~name:"of_string agrees with the reference parser"
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       differential_input)
    (fun s ->
      let show = function
        | Ok t -> "Ok " ^ Obs.Json.to_string t
        | Error msg -> "Error " ^ msg
      in
      match (Obs.Json.of_string s, Json_reference.of_string s) with
      | Ok a, Ok b when same_tree a b -> true
      | Error a, Error b when String.equal a b -> true
      | _ when underscore_in_u_escape s || forbidden_number s -> true
      | got, want ->
          QCheck.Test.fail_reportf "of_string %S: %s, the reference: %s" s (show got)
            (show want))

(* The member walk is [of_string] without the tree: on every input the
   same [Ok]/[Error] and message, and each member it builds is the one
   [member] finds in the tree, floats bit for bit. The names it looks
   for are the tree's top-level keys when it parses, and the text's
   quoted runs otherwise, so walks that build part of a broken document
   run too. The same inputs, wrapped into response bodies, get the same
   verdict, message, id, error code and error message from
   [Wire.response_verdict] as from [Wire.parse_response]. *)
let quoted_runs s =
  String.split_on_char '"' s |> List.filteri (fun i _ -> i mod 2 = 1)

let prop_members_match_of_string =
  QCheck.Test.make ~count:10_000 ~name:"the scan agrees with of_string"
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       differential_input)
    (fun s ->
      let tree = Obs.Json.of_string s in
      let names =
        match tree with
        | Ok (Obs.Json.Obj fields) -> List.map fst fields
        | _ -> quoted_runs s
      in
      let keys =
        List.sort_uniq String.compare ("" :: "absent" :: names)
        |> List.mapi (fun i k -> if i mod 2 = 0 then Obs.Json.Build k else Obs.Json.Find k)
        |> Array.of_list
      in
      let agrees key field t =
        let name = match key with Obs.Json.Build k | Obs.Json.Find k -> k in
        match (key, field, Obs.Json.member name t) with
        | Obs.Json.Build _, Obs.Json.Built v, Some w -> same_tree v w
        | Obs.Json.Find _, Obs.Json.Found, Some _ -> true
        | _, Obs.Json.Absent, None -> true
        | _ -> false
      in
      (match (tree, Obs.Json.members keys s) with
      | Ok t, Ok found when Array.for_all2 (fun k f -> agrees k f t) keys found -> ()
      | Error a, Error b when String.equal a b -> ()
      | _, walk ->
          QCheck.Test.fail_reportf "members %S: %s, of_string: %s" s
            (match walk with Ok _ -> "Ok" | Error m -> "Error " ^ m)
            (match tree with Ok t -> "Ok " ^ Obs.Json.to_string t | Error m -> "Error " ^ m));
      List.for_all
        (fun body ->
          let same_verdict v (r : Service.Wire.response) =
            match (v, r.body) with
            | Ok (), Ok _ -> true
            | Error e, Error e' -> e = e'
            | _ -> false
          in
          match
            (Service.Wire.response_verdict body, Service.Wire.parse_response body)
          with
          | Ok (rid, v), Ok r when rid = r.Service.Wire.rid && same_verdict v r -> true
          | Error b, Error c when String.equal b c -> true
          | _ ->
              QCheck.Test.fail_reportf
                "response_verdict and parse_response disagree on %S" body)
        [
          s;
          {|{"v": 3, "id": 7, "ok": |} ^ s ^ "}";
          {|{"v": 3, "id": 7, "error": |} ^ s ^ "}";
          {|{"v": 3, "id": |} ^ s ^ {|, "ok": 1}|};
        ])

(* --- Domain sharding ------------------------------------------------------- *)

(* Four domains hammering one counter must merge to the serial total:
   increments land in per-domain shards and only meet at snapshot
   time, so nothing may be lost or double-counted. *)
let prop_sharded_counter_merge =
  QCheck.Test.make ~count:20 ~name:"4-domain counter merge = serial total"
    QCheck.(quad (int_range 1 500) (int_range 1 500) (int_range 1 500) (int_range 1 500))
    (fun (a, b, c, d) ->
      let r = Obs.Metrics.create ~enabled:true () in
      let cnt = Obs.Metrics.counter ~registry:r ~family:"t" "n" in
      let worker k = Domain.spawn (fun () ->
          for _ = 1 to k do Obs.Metrics.incr cnt done)
      in
      let doms = List.map worker [ a; b; c; d ] in
      List.iter Domain.join doms;
      let snap = Obs.Metrics.snapshot ~registry:r () in
      counter_value (find_exn snap ~family:"t" ~name:"n") = a + b + c + d)

(* The analysis engine's counters must not depend on the worker count:
   chunk boundaries are fixed by the instance, so a 1-domain and a
   4-domain run account the same number of configurations. *)
let test_analysis_counters_domain_invariant () =
  let run domains =
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    let n = 10 in
    let proto = Raft_model.protocol (Raft_model.default n) in
    let fleet = Faultmodel.Fleet.uniform ~n ~p:0.01 () in
    ignore (Analysis.run ~strategy:Analysis.Enumeration ~domains proto fleet);
    let snap = Obs.Metrics.snapshot () in
    let v = counter_value (find_exn snap ~family:"analysis" ~name:"configs_evaluated") in
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ();
    v
  in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check int) "1-domain vs 4-domain totals" serial parallel;
  Alcotest.(check int) "full enumeration" 1024 serial

let suite =
  [
    Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
    Alcotest.test_case "disabled registry" `Quick test_disabled_registry_records_nothing;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram extremes" `Quick test_histogram_extremes;
    Alcotest.test_case "snapshot jsonl round-trip" `Quick test_snapshot_jsonl_roundtrip;
    Alcotest.test_case "json parser strictness" `Quick test_json_parser_rejects_garbage;
    Alcotest.test_case "json to_int range" `Quick test_json_to_int_range;
    Alcotest.test_case "json string escaping" `Quick test_json_string_escaping;
    Alcotest.test_case "json depth limit" `Quick test_json_depth_limit;
    QCheck_alcotest.to_alcotest prop_parser_never_raises;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_sharded_counter_merge;
    Alcotest.test_case "analysis counters domain-invariant" `Quick
      test_analysis_counters_domain_invariant;
    Alcotest.test_case "disabled registry allocates nothing" `Quick
      test_disabled_registry_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_parser_matches_reference;
    QCheck_alcotest.to_alcotest prop_members_match_of_string;
  ]
