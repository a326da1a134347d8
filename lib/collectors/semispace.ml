open Repro_heap
open Repro_engine

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  gc_alloc : Bump_allocator.t;
  mutable bytes_since_gc : int;
  mutable collections : int;
  mutable copied_bytes : int;
  mutable in_collection : bool;
}

let collect t =
  if not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let threads = c.gc_threads in
    let tc = Trace_cost.create () in
    t.collections <- t.collections + 1;
    Heap.retire_all_allocators t.heap;
    Trace_cost.add_parallel tc ~threads
      ~cost_ns:(Float.of_int (Array.length t.roots) *. c.root_scan_ns);
    let on_visit (obj : Obj_model.t) =
      if Heap.evacuate t.heap t.gc_alloc obj then begin
        t.copied_bytes <- t.copied_bytes + obj.size;
        Trace_cost.add_parallel tc ~threads
          ~cost_ns:(c.copy_ns_per_byte *. Float.of_int obj.size)
      end
    in
    Gc_kernels.mark_from t.heap tc ~cost:c ~threads
      ~seeds:(Gc_kernels.iter_roots t.roots) ~on_visit;
    Bump_allocator.retire_all t.gc_alloc;
    ignore (Gc_kernels.sweep_unmarked t.heap tc ~cost:c ~threads);
    Mark_bitset.clear t.heap.marks;
    Heap.clear_touched t.heap;
    t.bytes_since_gc <- 0;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

(* Collect when the used half is exhausted: the other half must remain
   free so every survivor can be copied. *)
let used_blocks heap =
  Heap_config.blocks heap.Heap.cfg - Blocks.count_state heap.Heap.blocks Blocks.Free

let poll t () =
  if used_blocks t.heap >= Heap_config.blocks t.heap.cfg / 2
     && t.bytes_since_gc >= t.heap.Heap.cfg.heap_bytes / 16
  then collect t

(* Semispace has only one collection to offer; every ladder rung runs
   it (a retry after [Young] already reflects the best it can do). *)
let collect_for_alloc t (_ : Collector.pressure) = collect t

let factory : Collector.factory =
 fun sim heap ~roots ->
  let t =
    { sim; heap; roots;
      gc_alloc = Heap.make_allocator heap;
      bytes_since_gc = 0;
      collections = 0; copied_bytes = 0; in_collection = false }
  in
  { Collector.name = "Semispace";
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
          ("copied_bytes", Float.of_int t.copied_bytes) ]);
    introspect = Collector.no_introspection }
