(** The pause bracket and the collector kernels every plan shares
    (§2.5, §3.3).

    A plan (LXR, Journal-RC, G1, Shenandoah/ZGC, the STW baselines, the
    ideal baseline) keeps only policy: when to pause, which blocks to
    sweep, which objects are dead, and what happens to each dead object.
    The mechanisms live here once: the stop-the-world bracket ({!stw}),
    the mark-and-push ({!mark_push}), the breadth-first mark, the
    budgeted concurrent mark drain ({!conc_mark}), the metered in-pause
    decrement drain ({!drain_decrements}), the RC root snapshot
    ({!snapshot_roots}), the block sweep, block liveness, the one
    sparse-block pick behind target selection ({!select_fragmented}) and
    compaction, the full collection, and the guaranteed-progress
    compaction ({!compact}) with its emergency pause.

    Every kernel is a serial loop in ascending slot or block order (the
    mark in breadth-first rounds) on the domain that owns the heap, and
    charges its work to the pause's meter ({!Trace_cost.t}), which holds
    the cost model and the pause's GC thread count. Parallel GC is
    modelled in virtual time only: trace costs are frontier-limited,
    which is what makes a long singly-linked list a pathology for tracing
    but not for reference counting. *)

(** [iter_roots roots f] applies [f] to every non-null root slot, last
    slot first. Seed order fixes the breadth-first visit order, and with
    it evacuation addresses. *)
val iter_roots : int array -> (int -> unit) -> unit

(** [mark_push marks stack id] marks [id] in [marks] and pushes it onto
    [stack], unless [id] is null or already marked. Every gray push of
    every plan goes through it. *)
val mark_push : Repro_heap.Mark_bitset.t -> Repro_util.Vec.t -> int -> unit

(** [gray_referents heap stack id] applies {!mark_push} (with the heap's
    [marks]) to every field of the live object [id], in field order; a
    dead [id] grays nothing. *)
val gray_referents : Repro_heap.Heap.t -> Repro_util.Vec.t -> int -> unit

(** [stw ?gc_threads sim body] is every stop-the-world pause. It makes
    the pause's meter over [Sim.cost sim] and [gc_threads] GC threads
    (default [Cost_model.gc_threads]; Serial passes 1), runs [body tc],
    which returns the pause's label, and records a pause of the pause
    base plus the meter's critical path (wall) and total work (CPU). The
    recorded figures are then {!Sim.last_pause_cost}. Raises
    [Invalid_argument] if [body] recorded a pause itself. *)
val stw : ?gc_threads:int -> Sim.t -> (Trace_cost.t -> string) -> unit

(** [charge_root_scan tc roots] charges scanning every slot of [roots],
    as parallel work. *)
val charge_root_scan : Trace_cost.t -> int array -> unit

(** [snapshot_roots tc roots ~into] is the reference-counting plans'
    root snapshot: it empties [into], pushes every non-null root slot in
    ascending slot order, and charges the root scan
    ({!charge_root_scan}). *)
val snapshot_roots : Trace_cost.t -> int array -> into:Repro_util.Vec.t -> unit

(** [trace_rounds heap tc ~gray scan] drains the gray frontier [gray]
    in breadth-first rounds. Entry [k] of an [n]-entry round is charged
    [trace_obj_ns] at frontier [n - k], then [scan next id] grays the
    entry's unmarked referents onto [next] (the heap's [mark_next]), the
    next round's frontier. [gray] is empty on return. *)
val trace_rounds :
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  gray:Repro_util.Vec.t ->
  (Repro_util.Vec.t -> int -> unit) ->
  unit

(** [drain_marked ?on_visit heap tc ~gray] finishes a mark whose gray
    frontier [gray] is already marked in [heap.marks]: {!trace_rounds}
    marks and grays every unmarked referent. [on_visit] runs exactly once
    per live drained object, before its children are grayed (evacuation
    hooks run here). [gray] is empty on return. Marks are {b not}
    cleared. *)
val drain_marked :
  ?on_visit:(Repro_heap.Obj_model.t -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  gray:Repro_util.Vec.t ->
  unit

(** [mark_from ?on_visit heap tc ~seeds] marks everything reachable
    from [seeds] (an iterator over root ids, e.g. [iter_roots roots]):
    it marks and grays each seed onto the heap's [mark_gray], then
    {!drain_marked}. *)
val mark_from :
  ?on_visit:(Repro_heap.Obj_model.t -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  seeds:((int -> unit) -> unit) ->
  unit

(** [conc_mark cost ~gray ~budget_ns ~consumed scan env] is the
    budgeted concurrent mark drain. While [gray] is not empty and the
    running total, which starts at [consumed], is under [budget_ns], it
    charges [trace_obj_ns *. (1.0 /. conc_efficiency)], pops the top
    entry and runs [scan env gray id], which grays the entry's referents
    onto [gray] ({!gray_referents} for G1 and Shenandoah/ZGC). It
    returns the new total. The scan and its state are separate
    arguments, so a slice allocates no closure. The plan decides what
    an empty [gray] means: G1 flags its remark whenever the stack is
    empty on return, Shenandoah/ZGC and LXR only when it is empty with
    budget left. *)
val conc_mark :
  Cost_model.t ->
  gray:Repro_util.Vec.t ->
  budget_ns:float ->
  consumed:float ->
  ('a -> Repro_util.Vec.t -> int -> unit) ->
  'a ->
  float

(** [drain_decrements tc ~queue apply env] is the in-pause decrement
    drain: until [queue] is empty it charges [dec_ns] at the queue's
    length as frontier, pops the top entry and runs [apply env queue id],
    which may push cascaded decrements onto [queue]. *)
val drain_decrements :
  Trace_cost.t ->
  queue:Repro_util.Vec.t ->
  ('a -> Repro_util.Vec.t -> int -> unit) ->
  'a ->
  unit

(** [sweep_unmarked heap tc] frees every unmarked object (large objects
    included) in registry-slot order, compacts and reclassifies every
    data block ({!Repro_heap.Heap.classify_block}), rebuilds the free
    lists, and returns the freed byte count. Allocators must have been
    retired. *)
val sweep_unmarked : Repro_heap.Heap.t -> Trace_cost.t -> int

(** [full_collection ?evacuate ?targets heap tc ~roots ~gc_alloc
    ~compact] is the stop-the-world full collection: it marks from
    [roots], copying each visited object for which [evacuate] holds
    (default none) out through [gc_alloc]; retires [gc_alloc]; sweeps
    the unmarked ({!sweep_unmarked}); unflags the evacuation set
    [targets]; slide-compacts ({!compact}) when [compact];
    and clears the marks and the touched blocks. It returns the freed
    bytes and the copied bytes (mark copies plus compaction). The caller
    retires the mutator allocators and charges any root scan first. *)
val full_collection :
  ?evacuate:(Repro_heap.Obj_model.t -> bool) ->
  ?targets:int list ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  roots:int array ->
  gc_alloc:Repro_heap.Bump_allocator.t ->
  compact:bool ->
  int * int

(** [reclassify heap] re-derives every non-reserve data block's state
    from the RC table and rebuilds the free lists (partially filled
    compaction destinations become recyclable again). *)
val reclassify : Repro_heap.Heap.t -> unit

(** [compact heap tc ~gc_alloc] is the guaranteed-progress sliding
    compaction. In up to 8 rounds, until a quarter of the blocks are
    free, it picks the sparsest blocks (live bytes above zero and under
    85% of a block, by the integer test [live * 100 < block_bytes * 85])
    whose cumulative live bytes fit in 90% of the free block capacity,
    evacuates them completely through [gc_alloc], and returns them to
    the free list, so each round's emptied blocks fund the next. Dead
    objects must already have been reclaimed. It returns the bytes
    copied. *)
val compact :
  Repro_heap.Heap.t -> Trace_cost.t -> gc_alloc:Repro_heap.Bump_allocator.t -> int

(** [emergency_compact sim heap ~gc_alloc] is the last rung of the
    reference-counting plans' allocation ladder: a pause labelled
    ["compact"] that retires the allocators, releases the to-space
    reserve and slide-compacts the heap. It returns the bytes copied;
    the caller tops the reserve back up. *)
val emergency_compact :
  Sim.t -> Repro_heap.Heap.t -> gc_alloc:Repro_heap.Bump_allocator.t -> int

(** [sweep_blocks ?on_dead ?on_block heap tc ~blocks ~dead] sweeps
    [blocks] in array order: each block is charged [sweep_block_ns] and
    swept by {!Repro_heap.Heap.sweep_block}, which frees the residents
    satisfying [dead] and runs [on_dead] just before each free.
    [on_block b ~young cls] then sees the block's young flag from before
    the sweep and its classification. *)
val sweep_blocks :
  ?on_dead:(Repro_heap.Obj_model.t -> unit) ->
  ?on_block:(int -> young:bool -> [ `Freed | `Recyclable of int | `Full ] -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  blocks:int array ->
  dead:(Repro_heap.Obj_model.t -> bool) ->
  unit

(** [sweep_young ?on_dead ?on_block heap tc ~los] is the
    reference-counting young sweep: {!sweep_blocks} over the touched,
    non-reserve [In_use] blocks with zero-count residents dead, then the
    zero-count large objects listed in [los] (hooked through [on_dead]
    too). Clears [los] and the touched set. *)
val sweep_young :
  ?on_dead:(Repro_heap.Obj_model.t -> unit) ->
  ?on_block:(int -> young:bool -> [ `Freed | `Recyclable of int | `Full ] -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  los:Repro_util.Vec.t ->
  unit

(** [sweep_stale_block heap b] re-sweeps a block whose lines decrements
    may have freed ({!Repro_heap.Heap.rc_sweep_block}), unless it is
    not [In_use], is being allocated into (touched: its young residents
    legitimately carry zero counts), or is a reserve block. *)
val sweep_stale_block : Repro_heap.Heap.t -> int -> unit

(** [marked_block_liveness heap f] applies [f b bytes], in ascending
    block order, to every [In_use] or [Recyclable] non-reserve block,
    where [bytes] sums the block's residents marked in [heap.marks]. [f]
    may free block [b]'s residents. Reserve blocks are skipped: they are
    empty, so they would look like ideal evacuation or reclaim picks. *)
val marked_block_liveness : Repro_heap.Heap.t -> (int -> int -> unit) -> unit

(** [select_fragmented heap ~max_blocks ~occupancy_max] lists the
    lowest-occupancy data blocks (exact live bytes above zero and under
    [occupancy_max] of a block, ascending; ties by descending block) and
    flags them as evacuation targets. *)
val select_fragmented :
  Repro_heap.Heap.t ->
  max_blocks:int ->
  occupancy_max:float ->
  int list

(** [clear_targets heap targets] unflags an evacuation set. *)
val clear_targets : Repro_heap.Heap.t -> int list -> unit
