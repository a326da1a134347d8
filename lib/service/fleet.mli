(** The fleet serving tier: K replica simulations behind one front-end.

    Each replica is an independent {!Repro_engine.Sim} heap + collector
    running the metered request workload through
    {!Repro_mutator.Mut_engine}'s server interface. The front-end
    generates open-loop Poisson arrivals for the whole fleet, admits them
    through a bounded per-replica queue, and routes each to a replica
    with a pluggable {!Policy}. Per-request end-to-end latency (queueing
    + service, measured from fleet arrival to replica completion),
    per-replica utilization, and fleet-merged histograms come out the
    other side.

    {2 Resilience}

    Every replica carries a {!Lifecycle} state machine (warming, serving,
    draining, down, restarting). A {!Chaos} schedule can kill, stall or
    heap-shrink replicas mid-run and flash-crowd the arrival process; a
    killed replica relaunches after a restart delay into a fresh heap and
    re-enters service through a slow-start admission ramp. The front-end
    client policy ({!Policy.Retry}) adds request deadlines, bounded
    retry-with-backoff and hedged requests; an {!Slo} burn monitor drives
    brown-out load shedding; and an {!Slo.Autoscale} controller
    adds/drains replicas against the SLO burn rate. With none of these
    configured the fleet behaves exactly as before: no warm-up ramp, no
    restarts, and a replica death marks the run failed.

    {2 Determinism and domain parallelism}

    Time is divided into fixed scheduling quanta. At the start of each
    quantum the front-end — always single-threaded — assigns every
    arrival in the window using only checkpoint-frozen replica state
    (clock, per-round assignment count, {!Repro_engine.Api.gc_signal});
    then all replicas execute their assigned batches, each one entirely
    inside a single OCaml [Domain]; then a barrier re-snapshots every
    replica, settles request outcomes, fires lifecycle transitions and
    SLO/autoscale decisions. Chaos firings are quantized to the same
    checkpoints, replica relaunches execute inside worker rounds from
    orders placed at barriers, and restarted replica clocks are
    translated back onto the fleet timeline through a per-replica
    offset. Replicas share no mutable state with each other, and the
    per-replica event stream depends only on the batch sequence, so
    partitioning replicas across 1 or N domains produces bit-identical
    metrics — [--domains] is purely a wall-clock knob, chaos included.
    Replica rounds are the only host parallelism: each replica's
    collector runs serially on the domain serving its round. *)

type config = {
  workload : Repro_mutator.Workload.t;  (** must carry a request model *)
  factory : Repro_engine.Collector.factory;
  replicas : int;
  heap_factor : float;  (** per replica, like {!Repro_harness.Runner.run} *)
  policy : Policy.t;
  seed : int;
  requests : int;  (** total fleet-level request count *)
  load : float;
      (** multiplier on the aggregate arrival rate; [1.0] drives each
          replica at the workload's published target utilization *)
  queue_limit : int;
      (** admission bound: max requests handed to one replica per
          scheduling round; arrivals beyond it are rejected (or retried
          when the client policy allows) *)
  quantum_ns : float option;
      (** scheduling-checkpoint interval; default 4x the wall-clock
          service time (nominal mutator CPU over the cost model's
          mutator threads), keeping the GC signal fresh *)
  domains : int;  (** worker domains for replica execution, >= 1 *)
  verify : Repro_verify.Verifier.safepoint list;
      (** attach the heap-integrity verifier to every replica *)
  chaos : Chaos.spec option;
      (** seeded fault schedule; also enables auto-restart of dead
          replicas and the slow-start warm-up ramp *)
  retry : Policy.Retry.t;
      (** front-end client policy: deadline, retries, hedging; default
          {!Policy.Retry.none} *)
  slo : Slo.spec option;
      (** burn monitor + brown-out shedding over the latency SLO *)
  autoscale : Slo.Autoscale.spec option;
      (** burn-driven replica count controller; requires [slo] *)
  on_burn : (float -> unit) option;
      (** called with the SLO burn rate at every window boundary, while
          the replicas are quiescent — the hook a knob-controller
          factory ({!Repro_policy.Controller.lxr_factory}'s [burn])
          reads: the published value is frozen for the whole next
          parallel round, so controlled runs stay bit-identical across
          [domains] *)
}

(** [config ~workload ~factory ()] with fleet defaults: 4 replicas, 1.3x
    heap, gc-aware policy, seed 42, the workload's published request
    count, load 1.0, queue limit 64, auto quantum, 1 domain, no
    verifier, and no resilience features (no chaos, no retries, no SLO
    monitor, no autoscaler). [gc_threads] is ignored. It is kept only
    because the host-time benchmark ([ledger/]) still passes it; it goes
    at the next change to the benchmark. *)
val config :
  ?replicas:int ->
  ?heap_factor:float ->
  ?policy:Policy.t ->
  ?seed:int ->
  ?requests:int ->
  ?load:float ->
  ?queue_limit:int ->
  ?quantum_ns:float ->
  ?domains:int ->
  ?gc_threads:int ->
  ?verify:Repro_verify.Verifier.safepoint list ->
  ?chaos:Chaos.spec ->
  ?retry:Policy.Retry.t ->
  ?slo:Slo.spec ->
  ?autoscale:Slo.Autoscale.spec ->
  ?on_burn:(float -> unit) ->
  workload:Repro_mutator.Workload.t ->
  factory:Repro_engine.Collector.factory ->
  unit ->
  config

type replica_stats = {
  r_index : int;
  r_served : int;  (** requests this replica's completion won *)
  r_dropped : int;
      (** request copies lost on this replica: crash dumps, OOM, copies
          queued on a dead process (they may have completed elsewhere
          after a retry) *)
  r_latency : Repro_util.Histogram.t;  (** end-to-end ns, wins only *)
  r_queueing : Repro_util.Histogram.t;  (** wait before service start, ns *)
  r_busy_ns : float;
  r_wall_ns : float;  (** replica clock at fleet end minus fleet start *)
  r_utilization : float;  (** busy / fleet wall *)
  r_pause_count : int;
  r_pauses : Repro_util.Histogram.t;
  r_gc_cpu_ns : float;
  r_mutator_cpu_ns : float;
  r_oom : string option;
      (** last death reason; [None] when the replica ended healthy *)
  r_state : string;  (** lifecycle state at end of run *)
  r_restarts : int;  (** relaunches begun (Down -> Restarting edges) *)
  r_time_in : (string * float) list;
      (** ns accumulated per lifecycle state, {!Lifecycle.states} order *)
  r_ladder : (string * float) list;
      (** degradation-ladder rung counters
          ({!Repro_engine.Api.ladder_alist}), summed across restarts *)
  r_wb_fast : float;
      (** write-barrier fast paths taken, summed across restarts (0 for
          collectors that report no barrier counters) *)
  r_wb_slow : float;
      (** write-barrier slow paths: lxr field logs, journal_rc chunk
          publications *)
}

type result = {
  workload : string;
  collector : string;
  policy : Policy.t;
  replicas : int;
  domains : int;
  heap_factor : float;
  ok : bool;
      (** false: unsupported heap, setup failure, integrity violations —
          or, with no resilience configured, a mid-run exhaustion *)
  error : string option;
  requests : int;
  completed : int;  (** terminal: first copy completed *)
  rejected : int;  (** terminal: bounced off the admission bound *)
  dropped : int;
      (** terminal: lost to replica death, deadline exhaustion, or a
          dark fleet, with no retry budget left *)
  shed : int;  (** terminal: brown-out load shedding *)
  timeouts : int;  (** completions past the client deadline *)
  retries : int;  (** re-dispatches queued with backoff *)
  hedges : int;  (** hedge copies dispatched *)
  hedge_wins : int;  (** completions where the hedge copy won *)
  wall_ns : float;  (** fleet wall: latest replica clock - fleet start *)
  latency : Repro_util.Histogram.t;  (** merged across replicas *)
  queueing : Repro_util.Histogram.t;
  diversions : int;
      (** requests the gc-aware penalty routed away from the replica
          plain least-outstanding would have picked (0 under other
          policies) *)
  availability : float;
      (** in-SLA fraction: requests completed within the client deadline
          (all completions when no deadline is set) over all requests *)
  chaos_events : int;  (** chaos firings applied *)
  scale_ups : int;
  scale_downs : int;
  slo_peak_burn : float;  (** worst window burn rate (0 without an SLO) *)
  slo_breach_rounds : int;  (** rounds with burn > 1 *)
  slo_shed_rounds : int;  (** rounds spent browned out *)
  slo_timeline : Slo.sample list;  (** oldest first; [] without an SLO *)
  ladder : (string * float) list;
      (** fleet-summed degradation-ladder rung counters *)
  wb_fast : float;  (** fleet-summed write-barrier fast paths *)
  wb_slow : float;  (** fleet-summed write-barrier slow paths *)
  verifier_checks : int;
  violations : int;
  per_replica : replica_stats list;
      (** ascending replica index; only slots that ever held an engine *)
}

(** [qps_opt r] is [Some] completed requests per second of fleet wall
    time, or [None] when the run failed or completed nothing. *)
val qps_opt : result -> float option

(** [run config] — the whole fleet simulation. Never raises for workload,
    collector or config reasons; each of these is a failed run, reported
    through [ok]/[error]:
    - a workload without a request model;
    - fewer than one replica;
    - a quantum that is not > 0 (NaN included), or one too small to
      advance the clock at the time the run has reached;
    - autoscaling without an SLO;
    - a load that is not > 0 (NaN included);
    - a negative request count;
    - a queue limit below 1;
    - a chaos event whose explicit [:rN] target is not below [replicas];
    - an unsupported heap, one smaller than a block, or any other
      replica setup failure;
    - integrity violations, or, with no resilience configured, a
      replica's mid-run exhaustion. *)
val run : config -> result
