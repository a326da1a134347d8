(** Conservatively biased exponential-decay predictors (§3.2.1, §3.2.2).

    LXR predicts young survival rates (RC trigger) and post-SATB live
    block counts (wastage trigger) with an asymmetric exponential decay:
    when an observation exceeds the prediction the new value weighs 3/4,
    otherwise only 1/4 — biasing predictions high, i.e. conservatively
    toward more GC work being expected. *)

type t

(** [create ~initial] with the standard 3/4 : 1/4 weights. *)
val create : initial:float -> t

(** [observe t x] folds in an observation. *)
val observe : t -> float -> unit

(** Current prediction. *)
val value : t -> float
