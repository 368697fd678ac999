(** JSON codec for Raft messages and log entries.

    The simulator delivers typed messages in memory. The replicated
    service ({!Replica}) writes log entries into its segment file in
    this form, and carries messages between OS processes in its own
    binary envelopes ([Replica.Transport]). Decoders are total
    (untrusted input parses to [Error], never an exception) and the
    encoding round-trips every constructor bit-exactly. *)

val command_to_json : Raft_types.command -> Obs.Json.t
val command_of_json : Obs.Json.t -> (Raft_types.command, string) result

val entry_to_json : Raft_types.entry -> Obs.Json.t
val entry_of_json : Obs.Json.t -> (Raft_types.entry, string) result

val msg_to_json : Raft_types.msg -> Obs.Json.t
val msg_of_json : Obs.Json.t -> (Raft_types.msg, string) result
