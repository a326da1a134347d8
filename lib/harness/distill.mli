(** Distilled-cost accounting (Cai et al., "Distilling the Real Cost of
    Production Garbage Collectors").

    A collector's naive overhead conflates its own work with costs any
    memory manager would pay. The distilled cost subtracts a
    free-reclamation baseline — the same mutator work run under
    {!Repro_collectors.Ideal} — from the real run, and splits the
    difference into STW pauses, concurrent GC CPU, barrier cycles and
    allocation stalls.

    The baseline is an estimate, not an exact floor. It reclaims only
    when an allocation fails, and compacts only on the emergency rung,
    so its heap runs full and fragmented and its mutator pays allocator
    slow paths, block acquisitions and zeroing that an evacuating
    collector's whole free blocks avoid. A real run can therefore beat
    the baseline's mutator CPU: on fragger at 2x heap the components add
    up to more than the wall difference, and an LBO ({!Lbo}) computed
    over the same runs exceeds the distilled overhead. The qcheck
    property in [test_distill] checks the bounds that do hold on the
    trace corpus. *)

(** One contender's run paired with the baseline run of the same mutator
    work. *)
type t = {
  name : string;  (** the contender's name, as the caller listed it *)
  real : Runner.result;
  ideal : Runner.result;
}

(** [against ~run contenders] runs the baseline once through [run], then
    each contender in order, and pairs every contender's run with that
    one baseline run. *)
val against :
  run:(Repro_engine.Collector.factory -> Runner.result) ->
  (string * Repro_engine.Collector.factory) list ->
  t list

(** Both runs completed. The components below mean something only then;
    a failed row carries the real run's error, or none when only the
    baseline failed. *)
val ok : t -> bool

(** The real run's collector name, or the contender's [name] when the
    real run failed (a refused heap reports its collector as ["?"]). *)
val collector : t -> string

(** Mutator plus GC CPU of one run. *)
val total_cpu : Runner.result -> float

(** {2 Components}

    Each is a raw difference, real − ideal. *)

(** Wall-clock cost of choosing this collector. *)
val distilled_wall_ns : t -> float

(** Total-CPU cost ({!total_cpu}). *)
val distilled_cpu_ns : t -> float

(** Allocation-stall component. *)
val distilled_stall_ns : t -> float

(** Barrier component (the baseline has no barriers). *)
val barrier_ns : t -> float

(** Concurrent (non-pause) GC CPU component. *)
val concurrent_cpu_ns : t -> float

(** Distilled wall overhead as a percentage of the baseline's wall time
    ([0.] when the baseline is empty). *)
val wall_overhead_pct : t -> float

(** Distilled total-CPU overhead as a percentage of the baseline's. *)
val cpu_overhead_pct : t -> float
