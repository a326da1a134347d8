open Repro_heap
open Repro_engine

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  threads : int;
  defrag : bool;
  gc_alloc : Bump_allocator.t;
  mutable bytes_since_gc : int;
  mutable collections : int;
  mutable freed_bytes : int;
  mutable evacuated_bytes : int;
  mutable in_collection : bool;
}

let collect ?(force_defrag = false) t =
  if not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    t.collections <- t.collections + 1;
    Heap.retire_all_allocators t.heap;
    if force_defrag then Heap.release_reserve t.heap;
    Trace_cost.add_parallel tc ~threads:t.threads
      ~cost_ns:(Float.of_int (Array.length t.roots) *. c.root_scan_ns);
    let targets =
      (* Routine Immix defrag is bounded by the available headroom;
         emergency compaction happens after the sweep (see below). *)
      if t.defrag && Heap.available_blocks t.heap > 0 then
        Gc_kernels.select_fragmented t.heap
          ~max_blocks:(Heap.available_blocks t.heap) ~occupancy_max:0.5
      else []
    in
    let on_visit (obj : Obj_model.t) =
      if targets <> []
         && (not (Heap.is_los t.heap obj))
         && Blocks.target t.heap.blocks (Addr.block_of t.heap.cfg (Obj_model.addr obj))
         && Heap.evacuate t.heap t.gc_alloc obj
      then begin
        t.evacuated_bytes <- t.evacuated_bytes + obj.size;
        Trace_cost.add_parallel tc ~threads:t.threads
          ~cost_ns:(c.copy_ns_per_byte *. Float.of_int obj.size)
      end
    in
    Gc_kernels.mark_from t.heap tc ~cost:c ~threads:t.threads
      ~seeds:(Gc_kernels.iter_roots t.roots) ~on_visit;
    Bump_allocator.retire_all t.gc_alloc;
    let freed =
      Gc_kernels.sweep_unmarked t.heap tc ~cost:c ~threads:t.threads
    in
    t.freed_bytes <- t.freed_bytes + freed;
    Gc_kernels.clear_targets t.heap targets;
    (* Emergency collections compact (Serial and Parallel full GCs are
       mark-sweep-compact). *)
    if force_defrag then
      t.evacuated_bytes <-
        t.evacuated_bytes
        + Compaction.compact t.heap tc ~cost:c ~threads:t.threads
            ~gc_alloc:t.gc_alloc;
    Mark_bitset.clear t.heap.marks;
    Heap.clear_touched t.heap;
    Heap.ensure_reserve t.heap;
    t.bytes_since_gc <- 0;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

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

let make ~name ~threads ~defrag sim heap ~roots =
  let threads = max 1 threads in
  let t =
    { sim; heap; roots; threads; defrag;
      gc_alloc = Heap.make_allocator heap;
      bytes_since_gc = 0;
      collections = 0; freed_bytes = 0; evacuated_bytes = 0;
      in_collection = false }
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
 fun sim heap ~roots -> make ~name:"Serial" ~threads:1 ~defrag:false sim heap ~roots

let parallel : Collector.factory =
 fun sim heap ~roots ->
  make ~name:"Parallel" ~threads:(Sim.cost sim).gc_threads ~defrag:false sim heap ~roots

let immix : Collector.factory =
 fun sim heap ~roots ->
  make ~name:"Immix" ~threads:(Sim.cost sim).gc_threads ~defrag:true sim heap ~roots
