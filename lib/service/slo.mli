(** SLO-burn monitoring, brown-out load shedding, and autoscaling.

    The objective is "P% of requests complete within B ns". A sliding
    window of the last W scheduling rounds yields the burn rate — the
    observed violation fraction over the allowed fraction [(100-P)/100];
    burn 1.0 spends the error budget exactly. Hysteresis around
    [burn_high]/[burn_low] drives brown-out admission (a fixed fraction
    of new arrivals is shed while burning), and the autoscaler trades
    replicas against the same signal. All transitions happen at
    scheduling barriers on the single-threaded front-end, so they are
    bit-identical across domain counts.

    Spec: [p99.9:2ms[,window:64][,burn-high:4][,burn-low:1][,shed:0.5]] *)

type spec = {
  percentile : float;
  budget_ns : float;
  window_rounds : int;
  burn_high : float;
  burn_low : float;
  shed_fraction : float;
}

(** Parse and range-check; requires one [pP:BUDGET] objective. Unknown
    keys carry did-you-mean hints. *)
val of_spec : string -> (spec, string) result

(** One timeline point, recorded at every scheduling barrier. *)
type sample = { time : float; burn : float; shedding : bool }

type t

val create : spec -> t

(** The inert monitor: {!observe} and {!tick} do nothing, so its burn,
    shedding and counters stay 0 and its timeline empty. *)
val none : t

(** Feed one completed request into the current round. *)
val observe : t -> latency_ns:float -> unit

(** Close the round at a barrier: rotate the window, recompute burn, run
    the shed hysteresis, append to the timeline. *)
val tick : t -> now:float -> unit

val burn : t -> float

(** The fraction of new arrivals to shed right now: the spec's
    [shed_fraction] while browned out, else [0]. *)
val shedding : t -> float

val peak_burn : t -> float
val breach_rounds : t -> int
val shed_rounds : t -> int

(** Chronological. *)
val timeline : t -> sample list

module Autoscale : sig
  (** Spec: [max:8[,min:1][,up:4][,down:0.25][,patience:8][,cooldown:64]] *)
  type spec = {
    min_replicas : int;
    max_replicas : int;
    up_burn : float;
    down_burn : float;
    patience : int;
    cooldown : int;
  }

  val of_spec : string -> (spec, string) result

  type t

  val create : spec -> t

  (** One barrier decision from the frozen burn and active replica
      count. Actions are rate-limited by [cooldown]. *)
  val tick : t -> burn:float -> active:int -> [ `Hold | `Up | `Down ]
end
