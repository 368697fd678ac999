type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let number v = if Float.is_finite v then Float v else Null

(* --- Printing ------------------------------------------------------ *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float v ->
      if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.17g" v)
      else Buffer.add_string buf "null"
  | String s -> escape_into buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_string buf ", ";
          escape_into buf key;
          Buffer.add_string buf ": ";
          write buf value)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* --- Parsing ------------------------------------------------------- *)

exception Parse_error of int * string

let parse_error i msg = raise (Parse_error (i, msg))

let default_max_depth = 512

(* One cursor per [of_string] call. The parser allocates per value it
   returns, not per byte it reads: a peek is a byte, an unescaped
   string is one [String.sub], a short integer is read in place. *)
type cursor = { s : string; n : int; mutable pos : int; max_depth : int }

(* The byte under the cursor, or ['\000'] past the end. No token
   starts with NUL, so only the value dispatch, which must tell "end of
   input" from "unexpected '\000'", checks [pos] itself. *)
let peek c = if c.pos < c.n then String.unsafe_get c.s c.pos else '\000'

let expect c ch =
  if peek c = ch then c.pos <- c.pos + 1
  else parse_error c.pos (Printf.sprintf "expected %C" ch)

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
  | _ -> ()

(* Whether [word] is at [pos] of [s], from its byte [i] on. *)
let rec word_at s pos word i =
  i = String.length word
  || String.unsafe_get s (pos + i) = String.unsafe_get word i
     && word_at s pos word (i + 1)

let literal c word value =
  if c.pos + String.length word <= c.n && word_at c.s c.pos word 0 then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else parse_error c.pos ("expected " ^ word)

(* \uXXXX escapes decode to UTF-8; unpaired surrogates are kept as
   the replacement character rather than rejected. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex_digit = function
  | '0' .. '9' as d -> Char.code d - 48
  | 'a' .. 'f' as d -> Char.code d - 87
  | 'A' .. 'F' as d -> Char.code d - 55
  | _ -> -1

(* The four bytes at [i] as a code unit, or -1 unless all four are hex
   digits: RFC 8259 allows exactly four, and no underscore. *)
let hex4 s i =
  let a = hex_digit s.[i] and b = hex_digit s.[i + 1]
  and c = hex_digit s.[i + 2] and d = hex_digit s.[i + 3] in
  if a lor b lor c lor d < 0 then -1 else (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

(* The first quote or backslash at or after [i], or [n]. *)
let rec plain_end s n i =
  if i >= n then n
  else match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain_end s n (i + 1)

(* The rest of a string that holds an escape, from the cursor, which
   sits just after a backslash. *)
let rec escaped_string c buf =
  if c.pos >= c.n then parse_error c.pos "unterminated escape";
  let e = String.unsafe_get c.s c.pos in
  c.pos <- c.pos + 1;
  (match e with
  | '"' | '\\' | '/' -> Buffer.add_char buf e
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
      if c.pos + 4 > c.n then parse_error c.pos "truncated \\u escape";
      let code = hex4 c.s c.pos in
      c.pos <- c.pos + 4;
      if code < 0 then parse_error c.pos "invalid \\u escape";
      add_utf8 buf (if code < 0xD800 || code > 0xDFFF then code else 0xFFFD)
  | _ -> parse_error c.pos "unknown escape");
  let stop = plain_end c.s c.n c.pos in
  Buffer.add_substring buf c.s c.pos (stop - c.pos);
  if stop >= c.n then parse_error c.n "unterminated string";
  c.pos <- stop + 1;
  if String.unsafe_get c.s stop = '"' then Buffer.contents buf else escaped_string c buf

let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = plain_end c.s c.n start in
  if stop >= c.n then parse_error c.n "unterminated string";
  c.pos <- stop + 1;
  if String.unsafe_get c.s stop = '"' then String.sub c.s start (stop - start)
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf c.s start (stop - start);
    escaped_string c buf
  end

let rec digits_end s n i =
  if i >= n then n
  else match String.unsafe_get s i with '0' .. '9' -> digits_end s n (i + 1) | _ -> i

(* 18 decimal digits always fit an OCaml [int] (max_int > 4.6e18). *)
let max_inplace_digits = 18

let rec accumulate s i stop v =
  if i >= stop then v
  else accumulate s (i + 1) stop ((v * 10) + Char.code (String.unsafe_get s i) - 48)

let parse_number c =
  let s = c.s and n = c.n in
  let start = c.pos in
  let negative = peek c = '-' in
  let first = if negative then start + 1 else start in
  let int_end = digits_end s n first in
  c.pos <- int_end;
  let is_float = ref false in
  if peek c = '.' then begin
    is_float := true;
    c.pos <- digits_end s n (c.pos + 1)
  end;
  (match peek c with
  | 'e' | 'E' ->
      is_float := true;
      c.pos <- c.pos + 1;
      (match peek c with '+' | '-' -> c.pos <- c.pos + 1 | _ -> ());
      c.pos <- digits_end s n c.pos
  | _ -> ());
  let count = int_end - first in
  if (not !is_float) && count >= 1 && count <= max_inplace_digits then begin
    let v = accumulate s first int_end 0 in
    Int (if negative then -v else v)
  end
  else begin
    let text = String.sub s start (c.pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some v -> Float v
      | None -> parse_error start "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Integer literal too large for [int]: fall back to float. *)
          match float_of_string_opt text with
          | Some v -> Float v
          | None -> parse_error start "malformed number")
  end

(* [depth] counts open containers. Untrusted input (wire requests)
   must not drive the recursive parser into a stack overflow, so
   crossing [max_depth] is a structured parse error like any other. *)
let rec parse_value c depth =
  skip_ws c;
  if c.pos >= c.n then parse_error c.pos "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
      if depth >= c.max_depth then parse_error c.pos "nesting too deep";
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (items c (depth + 1) [])
  | '{' ->
      if depth >= c.max_depth then parse_error c.pos "nesting too deep";
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (fields c (depth + 1) [])
  | '-' | '0' .. '9' -> parse_number c
  | ch -> parse_error c.pos (Printf.sprintf "unexpected %C" ch)

and items c depth acc =
  let acc = parse_value c depth :: acc in
  skip_ws c;
  if peek c = ',' then begin
    c.pos <- c.pos + 1;
    items c depth acc
  end
  else begin
    expect c ']';
    List.rev acc
  end

and fields c depth acc =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  let acc = (key, parse_value c depth) :: acc in
  skip_ws c;
  if peek c = ',' then begin
    c.pos <- c.pos + 1;
    fields c depth acc
  end
  else begin
    expect c '}';
    List.rev acc
  end

let of_string ?(max_depth = default_max_depth) s =
  let c = { s; n = String.length s; pos = 0; max_depth } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> c.n then parse_error c.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (i, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" i msg)

(* --- Accessors ----------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float v -> Some v
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float v
    when Float.is_integer v && Float.abs v <= 9007199254740992. (* 2^53 *) ->
      Some (int_of_float v)
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
