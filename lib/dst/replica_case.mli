(** DST system ["replica"]: the replicated deployment's guarantees
    checked on the simulator.

    Runs a {!Raft_sim.Raft_cluster} under generated kill/restart
    schedules (the in-sim analogue of the SIGKILL schedule
    [Replica.Driver] executes against real processes), in about half
    the episodes with one replica cut off for 1-4 s while writes are
    still being submitted, and with a stepped probe loop. At every
    probe each node that believes it leads starts a
    {!Raft_sim.Raft_node.read_index} read, and the loop asserts:

    - {b committed_prefix_agreement}: any two replicas' applied
      command sequences are prefix-comparable;
    - {b failover_latency_bounded}: a schedule-up majority never sits
      leaderless longer than the bound (a cut-off replica counts as
      down, and so does a leader that is cut off);
    - {b read_index_linearizable}: a confirmed read's index is at
      least the highest commit index any replica had when the read
      began;

    and at the end of the horizon:

    - {b no_acked_write_lost}: every command any replica ever applied
      survives in the longest final log. *)

type kill = { node : int; at : float; back_at : float option }

type partition = { isolated : int; from : float; until : float }
(** [isolated] loses every link to the others from [from] until
    [until] (sim milliseconds). *)

type t = {
  n : int;  (** Replicas, in [3, 7]. *)
  cluster_seed : int;
  drop_probability : float;
  kills : kill list;
  partition : partition option;
      (** Carried in the scenario's JSON; counts as one fault. *)
  ops : int list;
  horizon : float;  (** Sim milliseconds. *)
}

val system_name : string
(** ["replica"]. *)

val system : unit -> t Harness.system
