(** Minimal JSON tree, printer and parser.

    The observability layer is zero-dependency by design, so it carries
    its own JSON support: enough to write metric snapshots and CI
    artifacts, and parse them back for schema validation and
    round-trip tests. Not a general-purpose JSON library
    — numbers are OCaml [int]/[float], strings are assumed UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val number : float -> t
(** [Float v], except non-finite values (which JSON cannot represent)
    become [Null]. *)

val to_string : t -> string
(** Compact single-line rendering. Floats print with ["%.17g"] so they
    round-trip bit-exactly through {!of_string}; integral floats may
    re-parse as [Int] (use {!to_float} when consuming numbers). Strings
    escape the quote, the backslash and every control character
    U+0000–U+001F (short forms [\b \f \n \r \t], [\uXXXX] otherwise),
    so any OCaml string —
    arbitrary bytes included — renders to valid JSON and round-trips. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). [Error]
    carries a message with a character offset. Input nested deeper than
    512 containers is rejected with a structured [Error] rather
    than overflowing the parser's stack — safe on untrusted socket
    input. Numbers follow RFC 8259: a leading zero ([007], [-01]) or a
    [.] with no digit before or after it ([1.], [1.e5], [-.5]) is a
    "malformed number" at the number's offset. *)

type key =
  | Build of string  (** Build this top-level member's value. *)
  | Find of string  (** Only report whether the member is there. *)

type field = Absent | Found | Built of t

val members : key array -> string -> (field array, string) result
(** [members keys s] checks [s] exactly as {!of_string} does — the same
    grammar, depth limit, [Ok]/[Error] and error message — but scans it
    rather than building a tree: it allocates no string, list or number
    for what it passes over. For each of [keys], which name distinct
    members, it reports the first top-level member of that name, as
    {!member} would find it: [Built v] for a [Build] key, [Found] for a
    [Find] key, [Absent] when [s] is not an object or has no such
    member. [members [||] s] is a pure validation. *)

val member : string -> t -> t option
(** Field lookup; [None] when absent or when the value is not [Obj]. *)

val to_float : t -> float option
(** Numeric accessor accepting both [Int] and [Float]. *)

val to_int : t -> int option
(** [Int], or a [Float] that is an exact integer. *)

val to_list : t -> t list option
val to_string_opt : t -> string option
