(** Plain-text table rendering for the analysis harness.

    The bench and CLI print the paper's tables; this keeps the
    alignment logic in one place. *)

type t

val create : header:string list -> t

val add_row : t -> string list -> unit
(** Rows shorter than the header are right-padded with empty cells;
    longer rows raise [Invalid_argument]. *)

val render : t -> string
(** Monospace-aligned table with a header separator line. *)

val to_csv : t -> string
(** RFC-4180-ish CSV: header row then data rows; cells containing
    commas, quotes or newlines are quoted with doubled quotes. *)

val print : ?title:string -> t -> unit
(** Render to stdout, with an optional underlined title. *)

val metrics_table : Obs.Metrics.snapshot -> t
(** Pretty-printable summary of a metrics snapshot: one row per
    sample; histograms show count and p50/p90/p99/max columns. *)
