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

(* Container-nesting limit: deeper input is a parse error, not a stack
   overflow. *)
let max_depth = 512

type key = Build of string | Find of string
type field = Absent | Found | Built of t

(* One cursor per call. The parser allocates per value it returns, not
   per byte it reads: a peek is a byte, an unescaped string is one
   [String.sub], a short integer is read in place. With [build] off the
   same functions only check what they pass over and return constants,
   so a scan allocates nothing per value. [keys] names the top-level
   members a walk reports in [found]; it is empty for [of_string]. *)
type cursor = {
  s : string;
  n : int;
  mutable pos : int;
  mutable build : bool;
  keys : key array;
  found : field array;
}

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

(* The code point of one escape, from the cursor, which sits just
   after its backslash. *)
let escape c =
  if c.pos >= c.n then parse_error c.pos "unterminated escape";
  let e = String.unsafe_get c.s c.pos in
  c.pos <- c.pos + 1;
  match e with
  | '"' | '\\' | '/' -> Char.code e
  | 'b' -> Char.code '\b'
  | 'f' -> Char.code '\012'
  | 'n' -> Char.code '\n'
  | 'r' -> Char.code '\r'
  | 't' -> Char.code '\t'
  | 'u' ->
      if c.pos + 4 > c.n then parse_error c.pos "truncated \\u escape";
      let code = hex4 c.s c.pos in
      c.pos <- c.pos + 4;
      if code < 0 then parse_error c.pos "invalid \\u escape";
      if code < 0xD800 || code > 0xDFFF then code else 0xFFFD
  | _ -> parse_error c.pos "unknown escape"

(* The rest of a string that holds an escape, from the cursor, which
   sits just after a backslash, collected into [buf] unless the
   cursor only checks. *)
let rec escaped_string c buf =
  let code = escape c in
  let stop = plain_end c.s c.n c.pos in
  (match buf with
  | Some buf ->
      add_utf8 buf code;
      Buffer.add_substring buf c.s c.pos (stop - c.pos)
  | None -> ());
  if stop >= c.n then parse_error c.n "unterminated string";
  c.pos <- stop + 1;
  if String.unsafe_get c.s stop = '"' then
    match buf with Some buf -> Buffer.contents buf | None -> ""
  else escaped_string c buf

let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = plain_end c.s c.n start in
  if stop >= c.n then parse_error c.n "unterminated string";
  c.pos <- stop + 1;
  if String.unsafe_get c.s stop = '"' then
    if c.build then String.sub c.s start (stop - start) else ""
  else if c.build then begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf c.s start (stop - start);
    escaped_string c (Some buf)
  end
  else escaped_string c None

let rec digits_end s n i =
  if i >= n then n
  else match String.unsafe_get s i with '0' .. '9' -> digits_end s n (i + 1) | _ -> i

(* 18 decimal digits always fit an OCaml [int] (max_int > 4.6e18). *)
let max_inplace_digits = 18

let rec accumulate s i stop v =
  if i >= stop then v
  else accumulate s (i + 1) stop ((v * 10) + Char.code (String.unsafe_get s i) - 48)

let malformed_number start = parse_error start "malformed number"

(* A number must match RFC 8259's
   ["-?(0|[1-9][0-9]*)([.][0-9]+)?([eE][+-]?[0-9]+)?"], checked before
   anything is converted, so a valid number always converts. *)
let parse_number c =
  let s = c.s and n = c.n in
  let start = c.pos in
  let negative = peek c = '-' in
  let first = if negative then start + 1 else start in
  let int_end = digits_end s n first in
  let count = int_end - first in
  if count = 0 || (count > 1 && String.unsafe_get s first = '0') then
    malformed_number start;
  c.pos <- int_end;
  let fraction = peek c = '.' in
  if fraction then begin
    c.pos <- digits_end s n (int_end + 1);
    if c.pos = int_end + 1 then malformed_number start
  end;
  let exponent = match peek c with 'e' | 'E' -> true | _ -> false in
  if exponent then begin
    c.pos <- c.pos + 1;
    (match peek c with '+' | '-' -> c.pos <- c.pos + 1 | _ -> ());
    let digits = c.pos in
    c.pos <- digits_end s n digits;
    if c.pos = digits then malformed_number start
  end;
  if not c.build then Null
  else if not (fraction || exponent) && count <= max_inplace_digits then begin
    let v = accumulate s first int_end 0 in
    Int (if negative then -v else v)
  end
  else begin
    let text = String.sub s start (c.pos - start) in
    if fraction || exponent then Float (float_of_string text)
    else
      (* Integer literal too large for [int]: fall back to float. *)
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  end

(* The first of [c.keys], from [i] on, named by the key between [start]
   and [stop], or -1; [decoded] is that key when it holds an escape. *)
let rec key_index c start stop decoded i =
  if i >= Array.length c.keys then -1
  else
    let name = match c.keys.(i) with Build name | Find name -> name in
    let named =
      match decoded with
      | Some key -> String.equal key name
      | None -> String.length name = stop - start && word_at c.s start name 0
    in
    if named then i else key_index c start stop decoded (i + 1)

(* The slot in [c.keys] of the key the cursor has just passed, which
   began at [start], or -1. A key is compared in place unless it holds
   an escape; then it is decoded first. *)
let key_slot c start =
  let stop = c.pos - 1 in
  if plain_end c.s c.n start = stop then key_index c start stop None 0
  else begin
    let pos = c.pos and build = c.build in
    c.pos <- start - 1;
    c.build <- true;
    let key = parse_string c in
    c.pos <- pos;
    c.build <- build;
    key_index c start stop (Some key) 0
  end

(* [depth] counts open containers. Untrusted input (wire requests)
   must not drive the recursive parser into a stack overflow, so
   crossing [max_depth] is a structured parse error like any other. *)
let rec parse_value c depth =
  skip_ws c;
  if c.pos >= c.n then parse_error c.pos "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '"' ->
      let s = parse_string c in
      if c.build then String s else Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
      if depth >= max_depth then parse_error c.pos "nesting too deep";
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else
        let l = items c (depth + 1) [] in
        if c.build then List l else Null
  | '{' ->
      if depth >= max_depth then parse_error c.pos "nesting too deep";
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else
        let l = fields c (depth + 1) [] in
        if c.build then Obj l else Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> parse_error c.pos (Printf.sprintf "unexpected %C" ch)

and items c depth acc =
  let v = parse_value c depth in
  let acc = if c.build then v :: acc else acc in
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
  let start = c.pos + 1 in
  let key = parse_string c in
  let slot = if depth = 1 && Array.length c.keys > 0 then key_slot c start else -1 in
  skip_ws c;
  expect c ':';
  let acc =
    if slot < 0 then begin
      let v = parse_value c depth in
      if c.build then (key, v) :: acc else acc
    end
    else begin
      take c slot depth;
      acc
    end
  in
  skip_ws c;
  if peek c = ',' then begin
    c.pos <- c.pos + 1;
    fields c depth acc
  end
  else begin
    expect c '}';
    List.rev acc
  end

(* A named top-level member's value, built or only found as its key
   asks. As with [member], the first occurrence counts; later ones are
   only checked. *)
and take c slot depth =
  match (c.keys.(slot), c.found.(slot)) with
  | Build _, Absent ->
      c.build <- true;
      let v = parse_value c depth in
      c.build <- false;
      c.found.(slot) <- Built v
  | Find _, Absent ->
      ignore (parse_value c depth);
      c.found.(slot) <- Found
  | _, (Found | Built _) -> ignore (parse_value c depth)

let parse c =
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> c.n then parse_error c.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (i, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" i msg)

let cursor ~build keys s =
  {
    s;
    n = String.length s;
    pos = 0;
    build;
    keys;
    found = Array.make (Array.length keys) Absent;
  }

let of_string s = parse (cursor ~build:true [||] s)

let members keys s =
  let c = cursor ~build:false keys s in
  match parse c with Ok _ -> Ok c.found | Error _ as e -> e

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
