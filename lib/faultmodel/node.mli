(** A replica with its individual fault profile.

    Following the paper's §2(4), a node's faults are not all of one
    kind: most manifest as crashes, a small fraction (mercurial cores,
    TEE compromises) as Byzantine behaviour. [byz_fraction] splits the
    fault curve accordingly, so a BFT analysis can weight the two
    classes differently. *)

type t = {
  id : int;
  label : string;
  curve : Fault_curve.t;
  byz_fraction : float;
      (** Fraction of faults that are Byzantine rather than crashes;
          [0.] for a pure-crash node, [1.] for a fully adversarial
          model. The paper quotes ~0.01% corruption-execution errors vs
          4% AFR, i.e. a byz_fraction of ~0.0025. *)
}

val make : ?label:string -> ?byz_fraction:float -> id:int -> Fault_curve.t -> t
(** [byz_fraction] defaults to [0.]. Raises [Invalid_argument] if it is
    outside [0, 1]. *)

val fault_probability : ?at:float -> t -> float
(** Overall fault probability, by default at the one-year mark
    (matching AFR-style quotes). *)

val byz_probability : ?at:float -> t -> float
(** Probability of a Byzantine fault: [fault_probability * byz_fraction]. *)

val crash_probability : ?at:float -> t -> float
