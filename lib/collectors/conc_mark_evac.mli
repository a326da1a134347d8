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

type params = {
  name : string;
  lvb_ns : float -> float;  (** read barrier cost given [Cost_model.lvb_ns] *)
  satb_write_barrier : bool;  (** Shenandoah logs overwritten values while marking *)
  conc_threads : int;
  trigger_free_fraction : float;  (** start a cycle when free space drops below *)
  cset_occupancy_max : float;  (** live fraction under which a block joins the cset *)
  min_heap_bytes : int option;  (** refuse smaller heaps (ZGC, §4) *)
}

val shenandoah_params : params

val zgc_params : params

(** [factory params] — raises {!Repro_engine.Collector.Unsupported} at
    creation when the heap is below [min_heap_bytes]. *)
val factory : params -> Repro_engine.Collector.factory

val shenandoah : Repro_engine.Collector.factory
val zgc : Repro_engine.Collector.factory
