(** The virtual clock and global accounting for one simulation run.

    Mutator work accumulates in a pending buffer and is flushed to the
    wall clock at safepoints; flushing also hands the elapsed wall time to
    the collector's concurrent threads as a CPU budget, scaled by core
    availability: when [mutator_threads + concurrent GC threads] exceeds
    [cores], the mutator runs proportionally slower (§5.2's CPU-stealing
    effect), and while concurrent *copying* is active an additional
    interference fraction models cache and DRAM bandwidth pollution (§1).

    Two cost totals are maintained: wall-clock time (Figure 7a) and total
    CPU cycles integrated over all cores (Figure 7b), which includes all
    concurrent collector work. *)

type t

(** The hot accounting state, an all-float record (flat unboxed
    representation): the per-event fast paths in {!Api} read and mutate
    these fields directly so a charge is a
    plain unboxed load/add/store, never a float allocation. Everything
    here is also reachable through the accessor functions below; the
    record exists purely so the hot paths can skip the function-call
    boundary (which would box its float argument). Invariants: [pending]
    is un-flushed mutator CPU, [d_barrier]/[d_stall] are the
    distilled-cost sub-accounts behind {!note_barrier} and
    {!note_alloc_stall}. *)
type hot = {
  mutable now : float;
  mutable pending : float;
  mutable mutator_cpu : float;
  mutable gc_cpu : float;
  mutable stw_wall : float;
  mutable stw_cpu : float;
  mutable interference : float;
  mutable last_pause_start : float;
  mutable last_pause_end : float;
  mutable d_barrier : float;
  mutable d_stall : float;
}

val create : Cost_model.t -> t

(** The live hot-state record of this simulation (see {!hot}). *)
val hot : t -> hot

val cost : t -> Cost_model.t

(** Current virtual time in ns. *)
val now : t -> float

(** [reset_measurement t] zeroes every accumulator except the clock —
    called when the workload's warmup/setup phase ends, mirroring the
    paper's fifth-iteration methodology (§4). *)
val reset_measurement : t -> unit

(** [charge_mutator t ns] adds mutator CPU work (not yet on the wall
    clock). *)
val charge_mutator : t -> float -> unit

(** Pending un-flushed mutator work. *)
val pending : t -> float

(** [flush t ~conc_threads ~conc_run] pushes pending mutator work onto
    the wall clock and offers the elapsed wall time times [conc_threads]
    as CPU budget to [conc_run], which returns the amount consumed. *)
val flush : t -> conc_threads:int -> conc_run:(budget_ns:float -> float) -> unit

(** [advance_idle t ~until ~conc_threads ~conc_run] moves the clock
    forward to [until] (a request-arrival gap), offering the idle time to
    concurrent GC. No-op when [until <= now]. *)
val advance_idle :
  t -> until:float -> conc_threads:int -> conc_run:(budget_ns:float -> float) -> unit

(** [pause t ~wall_ns ~cpu_ns] records a stop-the-world pause: the clock
    advances by [wall_ns], the pause histogram records it, and [cpu_ns]
    CPU cycles are attributed to GC. Pending mutator work must have been
    flushed by the caller ({!Api} guarantees this). [label] (default
    ["pause"]) is passed to the pause-end hook ({!set_on_pause_end}). *)
val pause : ?label:string -> t -> wall_ns:float -> cpu_ns:float -> unit

(** [set_interference t f]: while [f > 0.], mutator wall time is
    inflated by that fraction (set during concurrent evacuation). *)
val set_interference : t -> float -> unit

(* Accounting snapshots. *)

val mutator_cpu : t -> float
val gc_cpu : t -> float
val stw_wall : t -> float

(** GC CPU cycles spent inside stop-the-world pauses (the easy-to-measure
    component the LBO methodology subtracts, §5.5). *)
val stw_cpu : t -> float
val pause_count : t -> int

(** [last_pause t] is the [(start, end)] interval of the most recent
    stop-the-world pause, [(neg_infinity, neg_infinity)] before the
    first. A front-end scheduling over many simulations reads this to
    tell whether a replica's clock most recently jumped over a pause —
    the raw ingredient of {!Api.gc_signal}. Not cleared by
    {!reset_measurement}: the clock is not reset either. *)
val last_pause : t -> float * float

val pauses : t -> Repro_util.Histogram.t

(** The fault-injection record consulted by {!Api} and the collectors;
    {!Fault.none} unless a harness installed an injector. The simulation
    clock is the natural distribution point: both the API and every
    collector already hold the [Sim.t]. *)
val faults : t -> Fault.t

val set_faults : t -> Fault.t -> unit

(** The trace-capture hooks consulted by {!Api} and the generative
    mutator; {!Tracer.none} unless a recorder is attached. Distributed
    through the clock for the same reason as {!faults}: everything that
    must emit events already holds the [Sim.t]. *)
val tracer : t -> Tracer.t

val set_tracer : t -> Tracer.t -> unit

(** [set_on_pause_end t f]: [f label] runs at the end of every {!pause}
    (after accounting) — the verifier's post-pause safepoint hook. *)
val set_on_pause_end : t -> (string -> unit) -> unit

(** Allocation counters, maintained by {!Api}. *)
val note_alloc : t -> bytes:int -> unit

val alloc_bytes : t -> int
val alloc_count : t -> int

(** Barrier-attributed mutator CPU, maintained by {!Api} (fast paths) and
    the collectors (slow paths). A sub-account of {!mutator_cpu}: the
    cycles the distilled-cost methodology charges to the collector's
    barrier rather than to useful application work. Zeroed by
    {!reset_measurement}. *)
val note_barrier : t -> float -> unit

val barrier_cpu : t -> float

(** Wall-clock ns the mutator spent stalled inside the allocation slow
    path ({!Api.alloc_fast}'s collect/escalate ladder), maintained by
    {!Api}. Zeroed by {!reset_measurement}. *)
val note_alloc_stall : t -> float -> unit

val alloc_stall_ns : t -> float
