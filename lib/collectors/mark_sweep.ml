open Repro_heap
open Repro_engine

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  gc_threads : int;
  defrag : bool;
  gc_alloc : Bump_allocator.t;
  mutable bytes_since_gc : int;
  mutable collections : int;
  mutable freed_bytes : int;
  mutable evacuated_bytes : int;
}

let collect ?(force_defrag = false) t =
  Gc_kernels.stw ~gc_threads:t.gc_threads t.sim (fun tc ->
      t.collections <- t.collections + 1;
      Heap.retire_all_allocators t.heap;
      if force_defrag then Heap.release_reserve t.heap;
      Gc_kernels.charge_root_scan tc t.roots;
      let targets =
        (* Routine Immix defrag is bounded by the available headroom;
           emergency compaction happens after the sweep. *)
        if t.defrag && Heap.available_blocks t.heap > 0 then
          Gc_kernels.select_fragmented t.heap
            ~max_blocks:(Heap.available_blocks t.heap) ~occupancy_max:0.5
        else []
      in
      let in_target (obj : Obj_model.t) =
        Blocks.target t.heap.blocks (Addr.block_of t.heap.cfg (Obj_model.addr obj))
      in
      (* Emergency collections compact (Serial and Parallel full GCs are
         mark-sweep-compact). *)
      let freed, evacuated =
        Gc_kernels.full_collection ~evacuate:in_target ~targets t.heap tc
          ~roots:t.roots ~gc_alloc:t.gc_alloc ~compact:force_defrag
      in
      t.freed_bytes <- t.freed_bytes + freed;
      t.evacuated_bytes <- t.evacuated_bytes + evacuated;
      Heap.ensure_reserve t.heap;
      t.bytes_since_gc <- 0;
      "pause")

let low_watermark heap = max 3 (Heap_config.blocks heap.Heap.cfg / 16)

(* Trigger on completely-free blocks, not free lines: holes fragment into
   unallocatable singletons, and defragmentation needs whole-block
   headroom to copy into. The progress guard prevents back-to-back
   collections when the heap is persistently tight. *)
let poll t () =
  if Free_lists.free_count t.heap.free < low_watermark t.heap
     && t.bytes_since_gc >= t.heap.Heap.cfg.heap_bytes / 8
  then collect t

(* The degradation ladder for a monolithic STW collector: [Young] is an
   ordinary collection; [Full] and [Emergency] both force the
   reserve-releasing mark-sweep-compact. *)
let collect_for_alloc t = function
  | Collector.Young -> collect t
  | Collector.Full | Collector.Emergency -> collect ~force_defrag:true t

let make ~name ~gc_threads ~defrag sim heap ~roots =
  let t =
    { sim; heap; roots; gc_threads = max 1 gc_threads; defrag;
      gc_alloc = Heap.make_allocator heap;
      bytes_since_gc = 0;
      collections = 0; freed_bytes = 0; evacuated_bytes = 0 }
  in
  Heap.ensure_reserve t.heap;
  { Collector.name;
    on_alloc =
      (fun obj ->
        Heap.pin heap obj;
        t.bytes_since_gc <- t.bytes_since_gc + obj.Obj_model.size);
    on_write = (fun _ _ _ -> ());
    write_extra_ns = 0.0;
    read_extra_ns = 0.0;
    poll = poll t;
    collect_for_alloc = collect_for_alloc t;
    conc_active = (fun () -> 0);
    conc_run = (fun ~budget_ns:_ -> 0.0);
    conc_backlog = (fun () -> 0);
    on_finish = (fun () -> ());
    stats =
      (fun () ->
        [ ("collections", Float.of_int t.collections);
          ("freed_bytes", Float.of_int t.freed_bytes);
          ("evacuated_bytes", Float.of_int t.evacuated_bytes) ]);
    introspect = Collector.no_introspection }

let serial : Collector.factory =
 fun sim heap ~roots -> make ~name:"Serial" ~gc_threads:1 ~defrag:false sim heap ~roots

let parallel : Collector.factory =
 fun sim heap ~roots ->
  make ~name:"Parallel" ~gc_threads:(Sim.cost sim).gc_threads ~defrag:false sim heap ~roots

let immix : Collector.factory =
 fun sim heap ~roots ->
  make ~name:"Immix" ~gc_threads:(Sim.cost sim).gc_threads ~defrag:true sim heap ~roots
