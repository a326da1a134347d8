(** The collector kernels every plan shares (§2.5, §3.3).

    A plan (LXR, Journal-RC, G1, Shenandoah/ZGC, the STW baselines, the
    ideal baseline) keeps only policy: which blocks to sweep, which
    objects are dead, and what happens to each dead object. The
    mechanisms — the breadth-first mark, the block sweep, block liveness
    and target selection — live here once, so every plan sweeps and
    marks through the same code.

    Every kernel is a serial loop in ascending slot or block order (the
    mark in breadth-first rounds) on the domain that owns the heap.
    Parallel GC is modelled in virtual time only: trace costs are
    frontier-limited ({!Trace_cost}), which is what makes a long
    singly-linked list a pathology for tracing but not for reference
    counting. *)

(** [iter_roots roots f] applies [f] to every non-null root slot, last
    slot first. Seed order fixes the breadth-first visit order, and with
    it evacuation addresses. *)
val iter_roots : int array -> (int -> unit) -> unit

(** [pause_of ?label sim tc] records a stop-the-world pause costing the
    pause base plus [tc]'s critical path (wall) and total work (CPU). *)
val pause_of : ?label:string -> Sim.t -> Trace_cost.t -> unit

(** [trace_rounds tc ~cost ~threads ~gray scan] drains the gray
    frontier [gray] in breadth-first rounds. Entry [k] of an [n]-entry
    round is charged [trace_obj_ns] at frontier [n - k], then
    [scan id next] grays the entry's unmarked referents onto [next], the
    next round's frontier. [gray] is empty on return. *)
val trace_rounds :
  Trace_cost.t ->
  cost:Cost_model.t ->
  threads:int ->
  gray:Repro_util.Vec.t ->
  (int -> Repro_util.Vec.t -> unit) ->
  unit

(** [drain_marked ?on_visit heap tc ~cost ~threads ~gray] finishes a
    mark whose gray frontier [gray] is already marked in [heap.marks]:
    {!trace_rounds} marks and grays every unmarked referent. [on_visit]
    runs exactly once per live drained object, before its children are
    grayed (evacuation hooks run here). [gray] is empty on return. Marks
    are {b not} cleared. *)
val drain_marked :
  ?on_visit:(Repro_heap.Obj_model.t -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  cost:Cost_model.t ->
  threads:int ->
  gray:Repro_util.Vec.t ->
  unit

(** [mark_from ?on_visit heap tc ~cost ~threads ~seeds] marks
    everything reachable from [seeds] (an iterator over root ids, e.g.
    [iter_roots roots]): it marks and grays each seed, then
    {!drain_marked}. *)
val mark_from :
  ?on_visit:(Repro_heap.Obj_model.t -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  cost:Cost_model.t ->
  threads:int ->
  seeds:((int -> unit) -> unit) ->
  unit

(** [sweep_unmarked heap tc ~cost ~threads] frees every unmarked
    object (large objects included) in registry-slot order, compacts and
    reclassifies every data block ({!Repro_heap.Heap.classify_block}),
    rebuilds the free lists, and returns the freed byte count.
    Allocators must have been retired. *)
val sweep_unmarked :
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  cost:Cost_model.t ->
  threads:int ->
  int

(** [sweep_blocks ?on_dead ?on_block heap tc ~cost ~threads ~blocks
    ~dead] sweeps [blocks] in array order: each block is charged
    [sweep_block_ns] and swept by {!Repro_heap.Heap.sweep_block}, which
    frees the residents satisfying [dead] and runs [on_dead] just before
    each free. [on_block b ~young cls] then sees the block's young flag
    from before the sweep and its classification. *)
val sweep_blocks :
  ?on_dead:(Repro_heap.Obj_model.t -> unit) ->
  ?on_block:(int -> young:bool -> [ `Freed | `Recyclable of int | `Full ] -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  cost:Cost_model.t ->
  threads:int ->
  blocks:int array ->
  dead:(Repro_heap.Obj_model.t -> bool) ->
  unit

(** [sweep_young ?on_dead ?on_block heap tc ~cost ~threads ~los]
    is the reference-counting young sweep: {!sweep_blocks} over the
    touched, non-reserve [In_use] blocks with zero-count residents dead,
    then the zero-count large objects listed in [los] (hooked through
    [on_dead] too). Clears [los] and the touched set. *)
val sweep_young :
  ?on_dead:(Repro_heap.Obj_model.t -> unit) ->
  ?on_block:(int -> young:bool -> [ `Freed | `Recyclable of int | `Full ] -> unit) ->
  Repro_heap.Heap.t ->
  Trace_cost.t ->
  cost:Cost_model.t ->
  threads:int ->
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
