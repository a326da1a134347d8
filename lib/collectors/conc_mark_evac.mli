(** Concurrent-mark, concurrent-evacuation collectors (§2.4, §2.5).

    Shenandoah and ZGC share this engine: a loaded-value barrier filters
    every reference load; reclamation happens {e only} through
    evacuation — a cycle concurrently marks the whole heap
    (non-generational), selects a collection set of sparse blocks,
    evacuates it concurrently (stealing cores and polluting the memory
    system), updates references, and finally frees the emptied blocks.
    Pauses are brief (init-mark, final-mark, cleanup), but when the
    allocation rate outruns concurrent reclamation the allocator stalls
    until the cycle frees space, degenerating to a full stop-the-world
    collection when even that fails — the lusearch pathology of Tables 1
    and 6. *)

val shenandoah : Repro_engine.Collector.factory

(** ZGC raises {!Repro_engine.Collector.Unsupported} at creation when
    the heap is below its minimum (§4). *)
val zgc : Repro_engine.Collector.factory
