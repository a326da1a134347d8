(** Guaranteed-progress sliding compaction.

    The emergency defragmentation every collector falls back on when the
    free-block supply is exhausted: repeatedly select the sparsest data
    blocks whose live bytes fit in the currently free block capacity,
    evacuate them completely, and return them to the free list — each
    round's emptied blocks fund the next. Costs accumulate into the
    given pause meter ({!Trace_cost.t}). Dead objects must already have
    been reclaimed. Plans reach it through
    {!Gc_kernels.full_collection} and {!Gc_kernels.emergency_compact}. *)

(** [reclassify heap] re-derives every non-reserve data block's state
    from the RC table and rebuilds the free lists (partially filled
    compaction destinations become recyclable again). *)
val reclassify : Repro_heap.Heap.t -> unit

(** [compact heap tc ~gc_alloc] copies through [gc_alloc] and returns
    the bytes copied. *)
val compact :
  Repro_heap.Heap.t -> Trace_cost.t -> gc_alloc:Repro_heap.Bump_allocator.t -> int
