(** Protocol reliability models.

    A protocol model classifies each failure configuration as safe
    and/or live, exactly as the paper's §3 does: "we deem a
    configuration safe if all of its system runs ensure agreement
    across non-failed nodes", and live if all runs commit all
    operations. The analysis engine then weights configurations by
    probability.

    A predicate always carries a [full] form over configurations; when
    its truth depends only on the number of Byzantine and crashed nodes
    (true of Theorems 3.1 and 3.2), the [by_count] fast path lets the
    engine use the joint-count dynamic program instead of enumerating
    [2^N] subsets. *)

type predicate = {
  full : Config.t -> bool;
  by_count : (byz:int -> crashed:int -> bool) option;
}

type t = {
  name : string;
  n : int;  (** Cluster size the model is specialized to. *)
  safe : predicate;
  live : predicate;
}

val count_predicate : n:int -> (byz:int -> crashed:int -> bool) -> predicate
(** Build both forms from a count function. *)

val full_predicate : (Config.t -> bool) -> predicate

val always : n:int -> predicate
