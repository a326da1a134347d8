(** The generative mutator.

    Drives an {!Repro_engine.Api.t} with an allocation, mutation, and read
    stream matching a {!Workload.t}: a nursery ring keeps the most recent
    allocations stack-reachable (most die when their slot is overwritten);
    survivors are installed into a two-level long-lived structure whose
    slots churn (mature garbage); a fraction of survivors form unreachable
    cycle pairs (SATB-only garbage) or chain to the previous survivor
    (deep mature paths); an optional long singly-linked list exercises the
    tracing pathology; and the four latency workloads run a metered
    request loop with Poisson arrivals and unbounded queueing, recording
    per-request metered latency (arrival to completion). *)

type output = {
  latency : Repro_util.Histogram.t option;
      (** metered request latencies in ns, for latency workloads *)
  requests : int;
  survived_bytes : int;  (** bytes inserted into the long-lived structure *)
  large_bytes : int;  (** bytes allocated as large objects *)
  oom : string option;
      (** [Some description] when the degradation ladder was exhausted and
          the run was cut short; partial counters above remain valid *)
}

(** [run api prng workload ~scale] performs the whole benchmark (setup
    phase plus measured phase, scaled by [scale]) and finishes the
    collector. [on_measurement_start] fires between the two phases so the
    harness can reset its accumulators (warmed-up measurement, as in the
    paper's fifth-iteration methodology). Allocation failure does not
    raise: when {!Repro_engine.Api.alloc_fast} exhausts the degradation
    ladder the run stops early and the exhaustion is reported in
    [oom]. *)
val run :
  ?on_measurement_start:(unit -> unit) ->
  Repro_engine.Api.t ->
  Repro_util.Prng.t ->
  Workload.t ->
  scale:float ->
  output

(** {2 Request server}

    The open-loop request serving interface used by the fleet tier
    ([lib/service]): the same setup phase and the same per-request
    behaviour as {!run}'s metered loop, but with arrival times decided by
    an external front-end instead of a per-heap Poisson clock, so one
    mutator can act as a replica behind a load balancer. *)

type server

(** [make_server api prng w] runs the setup phase (long-lived structure,
    linked list, mature population) and returns the server, or [Error
    description] if the workload carries no request model or setup
    exhausted the degradation ladder. *)
val make_server :
  Repro_engine.Api.t -> Repro_util.Prng.t -> Workload.t -> (server, string) result

(** [server_measurement_start srv] zeroes the replica's accumulators
    (simulator measurement counters and survived/large-byte counts) —
    the fleet-tier equivalent of {!run}'s [on_measurement_start]. *)
val server_measurement_start : server -> unit

(** [serve srv ~arrival] serves one metered request that arrived at
    virtual time [arrival]: idles to the arrival if the replica's clock
    is behind it (donating the gap to concurrent GC), then performs the
    request's allocations and compute. Returns [None] once the request
    is served — its completion time is the replica's clock, [Sim.now]
    (or [(Sim.hot sim).now], which boxes nothing) — or [Some
    description] when the degradation ladder was exhausted mid-request:
    the replica is then dead and must not be served again. A served
    request allocates no result. *)
val serve : server -> arrival:float -> string option

(** [server_finish srv] flushes and runs the collector's final hook
    ({!Repro_engine.Api.finish}). *)
val server_finish : server -> unit
