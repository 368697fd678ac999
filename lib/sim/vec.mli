(** Growable array (amortized O(1) push) for protocol logs.

    OCaml 5.1 predates [Dynarray]; this is the small subset the
    protocol implementations need. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val truncate : 'a t -> int -> unit
(** Keep the first [n] elements; raises if [n] exceeds the length. *)

val to_list : 'a t -> 'a list
