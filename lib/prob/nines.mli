(** "Nines" notation for reliability probabilities.

    Storage systems express guarantees as nines of availability or
    durability (S3: 99.999999999% durable). The paper argues consensus
    guarantees should be quoted the same way; this module converts
    between probabilities, nines counts, and the percent strings printed
    in the paper's tables. *)

val of_prob : float -> float
(** [of_prob p] is the (fractional) number of nines of [p]:
    [-log10 (1 - p)]. [infinity] when [p = 1.]. *)

val to_prob : float -> float
(** Inverse of {!of_prob}: [to_prob k = 1 - 10^(-k)]. *)

val pp_percent : Format.formatter -> float -> unit
(** Print a probability the way the paper's tables do: as a percentage
    whose leading nines are kept and whose first non-nine digit block is
    rounded, with at least two decimals, e.g. [0.999702 -> "99.97%"],
    [0.9999899 -> "99.9990%"]. *)

val percent_string : float -> string

val pp_nines : Format.formatter -> float -> unit
(** Print as e.g. ["3.5 nines"]. *)

val parse_percent : string -> float option
(** Parse strings like ["99.97%"] (trailing [%] optional) back into a
    probability. Returns [None] on malformed input. *)
