(** PBFT wire messages.

    Digests and signatures are elided: the simulator's adversary is the
    protocol-level one the paper's theorems reason about (equivocating
    primaries, vote-stuffing view-changers, silent replicas), not a
    cryptographic forger. A [prepared_cert] stands in for the
    view-change message's P set: the slots the sender had prepared,
    with the view each was prepared in. *)

type prepared_cert = { seq : int; view : int; command : int }

type msg =
  | Request of { command : int }
      (** Client request, relayed to every replica. *)
  | Pre_prepare of { view : int; seq : int; command : int }
  | Prepare of { view : int; seq : int; command : int; replica : int }
  | Commit of { view : int; seq : int; command : int; replica : int }
  | View_change of { new_view : int; replica : int; prepared : prepared_cert list }
  | New_view of { view : int; pre_prepares : (int * int) list }
      (** [(seq, command)] slots the new primary re-proposes. *)
  | Status of { exec_next : int; replica : int }
      (** Periodic gossip of execution progress; peers that are ahead
          answer with {!State_transfer}. *)
  | State_transfer of { entries : (int * int) list; replica : int }
      (** Committed [(seq, command)] pairs for a lagging replica. A
          receiver only adopts an entry once [q_vc_t] distinct replicas
          vouch for it (the checkpoint-certificate analogue: enough
          vouchers that one is correct). *)
