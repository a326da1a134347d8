(** Drives one (workload, collector, heap size) simulation to completion
    and gathers every metric the experiments need. *)

type result = {
  workload : string;
  collector : string;
  heap_factor : float;
  heap_bytes : int;
  ok : bool;
      (** false: the collector refused the heap, the degradation ladder
          was exhausted, or the integrity verifier found violations *)
  error : string option;
  wall_ns : float;  (** total virtual run time *)
  mutator_cpu_ns : float;
  gc_cpu_ns : float;
  stw_wall_ns : float;
  stw_cpu_ns : float;
  alloc_stall_ns : float;
      (** mutator wall time lost waiting on allocation slow paths *)
  barrier_cpu_ns : float;  (** read/write-barrier overhead within mutator CPU *)
  pause_count : int;
  pauses : Repro_util.Histogram.t;  (** pause durations, ns *)
  latency : Repro_util.Histogram.t option;  (** metered request latency, ns *)
  requests : int;
  alloc_bytes : int;
  alloc_count : int;
  survived_bytes : int;
  large_bytes : int;
  collector_stats : (string * float) list;
  ladder : (string * float) list;
      (** degradation-ladder rung counts ({!Repro_engine.Api.ladder_alist}) *)
  violations :
    (Repro_verify.Verifier.safepoint * string * Repro_verify.Verifier.violation)
    list;  (** integrity violations, when [verify] was requested *)
  verifier_checks : int;  (** safepoint checks executed *)
}

(** [stat r key] looks up a collector counter; [None] when the collector
    reports no counter [key]. *)
val stat : result -> string -> float option

(** Queries per second for latency workloads (0 otherwise). *)
val qps : result -> float

(** [run ~workload ~factory ~heap_factor ()] builds the heap at
    [heap_factor x] the workload's minimum, instantiates the collector,
    and runs the benchmark. [scale] scales allocation volume and request
    count (default 1.0); [seed] fixes the PRNG; [heap_config] customizes
    block size, RC bits etc. for the sensitivity experiments. [verify]
    attaches the heap-integrity verifier at the given safepoints;
    [inject] installs a deterministic fault injector
    ({!Repro_engine.Fault.of_spec}) on the simulator. Allocation
    exhaustion no longer raises — it is reported via [ok]/[error] with
    the partial metrics intact. A heap too small for any geometry (below
    one block) is a failed run too, and so is a scale that is NaN, not
    positive or infinite.

    [record_to] tees the run's mutator-observable event stream into a
    trace recorder and writes the finished trace to the given path;
    recording is observationally free (a recorded run's metrics are
    bit-identical to an unrecorded one's).

    [gc_threads] is ignored. It is kept only because the host-time
    benchmark ([ledger/]) still passes it; it goes at the next change to
    the benchmark. The {b simulated} GC thread count is
    [Cost_model.gc_threads]. *)
val run :
  ?seed:int ->
  ?scale:float ->
  ?gc_threads:int ->
  ?heap_config:(heap_bytes:int -> Repro_heap.Heap_config.t) ->
  ?verify:Repro_verify.Verifier.safepoint list ->
  ?inject:Repro_engine.Fault.t ->
  ?record_to:string ->
  workload:Repro_mutator.Workload.t ->
  factory:Repro_engine.Collector.factory ->
  heap_factor:float ->
  unit ->
  result

(** [replay ~trace ~factory ()] is {!run} with the recorded trace in the
    generative mutator's place: the heap is rebuilt from the trace
    header's geometry and the event stream drives the collector through
    {!Repro_trace.Replay}. Replaying under the recording's collector
    reproduces the live run's metrics exactly; replaying under a
    different collector measures that collector on the identical mutator
    work. [verify], [inject], and [record_to] behave as in {!run}
    (recording a replay of an untampered trace reproduces the trace byte
    for byte), and [gc_threads] is ignored as in {!run}. Every run uses
    {!Repro_engine.Cost_model.default}. *)
val replay :
  ?gc_threads:int ->
  ?verify:Repro_verify.Verifier.safepoint list ->
  ?inject:Repro_engine.Fault.t ->
  ?record_to:string ->
  trace:Repro_trace.Trace_format.t ->
  factory:Repro_engine.Collector.factory ->
  unit ->
  result
