(** The mutator-facing API.

    Workloads interact with the heap exclusively through this module so
    that every allocation, reference load, reference store and unit of
    application compute is charged to the virtual clock, routed through
    the collector's barriers, and interleaved with safepoints and
    concurrent GC progress.

    Every call also emits one {!Tracer.event} to the {!Sim.tracer} sink
    when a trace recorder is attached (allocation outcomes, stores, loads, root
    writes, compute, safepoints, finish), so [lib/trace] can capture the
    exact mutator-observable event stream. [get_root] and [idle_until]
    are not captured: the replayer re-derives idling from recorded
    request arrival times, and root reads have no heap-visible effect.

    Allocation failure is handled by a structured degradation ladder
    (see {!alloc_fast}) rather than ad-hoc retries: the engine escalates
    through {!Collector.pressure} rungs, counts each escalation in
    {!ladder_counts}, and reports exhaustion as a value, not an
    exception. *)

(** Everything known at the moment an allocation was declared
    unsatisfiable, for diagnostics. *)
type oom_info = {
  collector : string;
  requested_bytes : int;
  live_bytes : int;
  heap_bytes : int;
}

(** Per-run counters for the allocation-failure degradation ladder: how
    many times each rung was climbed, how often the to-space reserve was
    released to the mutator, and how many requests were ultimately
    declared unsatisfiable. *)
type ladder_counts = {
  mutable young_collections : int;
  mutable full_collections : int;
  mutable emergency_compactions : int;
  mutable reserve_releases : int;
  mutable exhaustions : int;
}

(** The ladder counters as metric pairs ([ladder_young], [ladder_full],
    [ladder_emergency], [ladder_reserve_release], [ladder_oom]). *)
val ladder_alist : ladder_counts -> (string * float) list

type t

(** [create sim heap factory] instantiates the collector and a mutator
    allocator. The root array has {!root_slots} entries. *)
val create : Sim.t -> Repro_heap.Heap.t -> Collector.factory -> t

val root_slots : int

val sim : t -> Sim.t
val heap : t -> Repro_heap.Heap.t
val collector : t -> Collector.t
val roots : t -> int array
val ladder : t -> ladder_counts

(** What a load balancer is allowed to see of one replica's GC state — a
    cheap, read-only snapshot taken between scheduling checkpoints by the
    fleet serving tier ([lib/service]). [pause_start]/[pause_end]
    delimit the most recent stop-the-world pause ([neg_infinity] before
    the first); [concurrent_threads] counts the collector's concurrent
    threads that want CPU (above zero inside a concurrent cycle, when a
    replica serves upcoming requests slower — CPU stealing, §5.2);
    [occupancy] is live bytes over heap bytes — the predictive part of
    the signal, since the replica closest to filling its heap is the one
    that will trigger a collection next, and routing traffic away from
    it both delays that trigger and shrinks the queue standing behind
    the eventual pause.

    Every field is a float, counts included, so OCaml stores the record
    flat: {!refresh_gc_signal} overwrites one in place without boxing.
    The fleet keeps one per replica and refreshes it at every barrier. *)
type gc_signal = {
  mutable pause_start : float;
  mutable pause_end : float;
  mutable concurrent_threads : float;
  mutable drain_backlog : float;
      (** outstanding deferred-reclamation items (journal records, queued
          decrements) awaiting the collector's concurrent drain; [0] for
          collectors with no such queue *)
  mutable occupancy : float;
}

(** [refresh_gc_signal t s] overwrites [s] with [t]'s current signal and
    allocates nothing. Side-effect free on [t]; safe to call at any
    safepoint boundary. *)
val refresh_gc_signal : t -> gc_signal -> unit

(** [alloc_fast t ~size ~nfields] allocates an object and returns its
    canonical handle, escalating through the degradation ladder when the
    heap is full: after a failed allocation it runs the collector at
    [Young], then [Full], then [Emergency] pressure — retrying after
    each — and finally releases the to-space reserve to the mutator.
    Only when all of that fails does it return the registry's
    none-handle ([obj.id = Obj_model.null]), and {!last_oom} describes
    the failure; the allocator and heap remain in a consistent state and
    further calls are permitted (e.g. after the workload drops roots).
    On success the new object is held in the reserved scratch root (slot
    [root_slots - 1]) across the allocation safepoint; install it
    somewhere reachable before the next allocation or it may be
    reclaimed. Both outcomes are teed to the tracer. *)
val alloc_fast : t -> size:int -> nfields:int -> Repro_heap.Obj_model.t

(** The most recent exhaustion recorded by {!alloc_fast}. *)
val last_oom : t -> oom_info

val describe_oom : oom_info -> string

(** [write t obj field ref_id] stores a reference through the write
    barrier. Fault injection ({!Sim.faults}) is consulted here: a
    [drop_barrier] hit skips the collector's barrier (the store still
    happens), a [flip_rc] hit perturbs the object's RC-table entry. A
    store through a freed handle is charged, traced and draws its faults
    like any other, but reaches neither the barrier nor the heap. *)
val write : t -> Repro_heap.Obj_model.t -> int -> int -> unit

(** [read t obj field] loads a reference through the read barrier. *)
val read : t -> Repro_heap.Obj_model.t -> int -> int

(** [work t ~ns] charges pure application compute. *)
val work : t -> ns:float -> unit

(** [set_root t slot ref_id] / [get_root t slot]: mutator root table. *)
val set_root : t -> int -> int -> unit

val get_root : t -> int -> int

(** [safepoint t] flushes pending work and polls the collector. Called
    automatically by [alloc_fast]; workloads may also call it on loop
    back-edges. *)
val safepoint : t -> unit

(** [flush t] pushes pending mutator work onto the wall clock (see
    {!Sim.flush}); the per-event entry points do it implicitly once
    pending work crosses a fixed threshold. *)
val flush : t -> unit

(** [idle_until t ns] advances the clock to [ns] (e.g. waiting for the
    next request arrival), letting concurrent GC use the idle cores. *)
val idle_until : t -> float -> unit

(** [finish t] flushes everything and runs the collector's final hook. *)
val finish : t -> unit
