(** Fixed-size [Domain]-based worker pool.

    [map] fans independent tasks out over up to [domains] lanes (the
    calling domain plus [domains - 1] spawned workers) and returns the
    results in task-index order, so the output is deterministic
    regardless of scheduling. Tasks must be independent: they may not
    mutate shared state.

    The lane count defaults to [Domain.recommended_domain_count () - 1]
    (at least 1) and can be overridden with the [PROBCONS_DOMAINS]
    environment variable; [0] and [1] both mean sequential execution in
    the calling domain. Calls made from inside a worker lane always run
    sequentially, so nested parallel code cannot oversubscribe the
    machine or exhaust the runtime's domain limit. *)

val default : unit -> int
(** Default lane count: [PROBCONS_DOMAINS] if set and parseable,
    otherwise [max 1 (Domain.recommended_domain_count () - 1)]. *)

val effective : ?domains:int -> tasks:int -> unit -> int
(** The number of lanes [map ?domains tasks f] would actually use:
    1 when sequential (0/1 domains requested, a single task, or called
    from inside a worker), otherwise [min domains tasks]. *)

val map : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [map ?domains n f] evaluates [f i] for [i] in [0..n-1] on the pool
    and returns the results in index order. If any task raises, one of
    the exceptions is re-raised in the caller after all lanes drain. *)
