(** Load-balancing policies for the fleet serving tier.

    The front-end picks a replica for every arriving request using only
    state it legitimately has at the last scheduling checkpoint: each
    replica's virtual clock, how many requests it was handed since the
    checkpoint, and the {!Repro_engine.Api.gc_signal} snapshot. *)

type t =
  | Round_robin  (** blind rotation, the fleet baseline *)
  | Least_outstanding
      (** earliest estimated completion: replica clock at the last
          checkpoint plus nominal service time per request already
          handed to it this round *)
  | Gc_aware
      (** {!Least_outstanding}, plus a penalty for replicas whose GC is
          active: ones inside a concurrent cycle (they serve slower and
          pause next) and ones whose last stop-the-world pause is recent
          (degradation clusters). The paper's Table 1 tails are per-heap
          pauses surfacing as request latency — this is the routing
          policy that hides them behind the fleet. *)

(** Every policy with its canonical name, in comparison order. *)
val all : (string * t) list

(** Canonical names: ["round-robin"], ["least-outstanding"],
    ["gc-aware"]. *)
val to_string : t -> string

val names : string list

(** [of_string name] resolves case-insensitively through
    {!Repro_util.Spec.choose}, like collector and benchmark lookups:
    unknown names carry a did-you-mean hint. *)
val of_string : string -> (t, string) result

(** Front-end client policy: request deadlines, bounded
    retry-with-backoff, and hedged requests. Orthogonal to the balancing
    policy {!t} — every balancer can run with or without it.

    Spec: [timeout:5ms[,max:3][,backoff:500us][,hedge:2ms]] *)
module Retry : sig
  type t = {
    timeout_ns : float option;
        (** client deadline from the original arrival; completions past
            it count as timed out, and a request still queued past it is
            failed rather than retried again *)
    max_attempts : int;  (** total dispatches, including the first *)
    backoff_ns : float;  (** base of the exponential backoff *)
    hedge_ns : float option;
        (** dispatch a second copy to the next-best replica whenever the
            chosen replica's estimated queueing delay exceeds this; the
            first completion wins *)
  }

  (** No deadline, one attempt, no hedging — the pre-resilience fleet. *)
  val none : t

  (** Parse and range-check; [max > 1] requires a timeout. Unknown keys
      carry did-you-mean hints. *)
  val of_spec : string -> (t, string) result

  (** [delay t ~attempt] — exponential backoff before re-dispatching
      attempt [attempt+1] ([backoff_ns * 2^(attempt-1)]). *)
  val delay : t -> attempt:int -> float
end
