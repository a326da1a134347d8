(* The free-reclamation baseline collector of distilled-cost accounting.

   Reclamation is semantically a precise mark-sweep(-compact): garbage
   is reclaimed exactly and allocation succeeds for as long as the live
   set fits the heap. But every collector action costs zero virtual
   time: no pauses are recorded, no GC CPU is charged, there are no
   barriers, and the mutator never stalls (collections triggered from
   the allocation slow path are free). What remains on the clock is the
   mutator's own work plus the allocator fast/slow paths, the baseline
   the distilled-cost methodology (Cai et al.) subtracts from a real
   collector's run.

   It is not the cheapest possible run. [poll] does nothing, so it
   reclaims only when an allocation fails, through the same
   full-collection kernel as the STW plans ({!Gc_kernels.full_collection}),
   which compacts only on the emergency rung. Its heap therefore runs
   full and fragmented, and its mutator pays allocator slow paths, block
   acquisitions and zeroing that an evacuating collector's whole free
   blocks avoid. The kernel meters its work into a Trace_cost that is
   simply dropped: the baseline records no pause and charges no GC CPU. *)

open Repro_heap
open Repro_engine

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  gc_alloc : Bump_allocator.t;
  mutable collections : int;
  mutable freed_bytes : int;
}

let collect ?(emergency = false) t =
  t.collections <- t.collections + 1;
  Heap.retire_all_allocators t.heap;
  if emergency then Heap.release_reserve t.heap;
  let tc = Trace_cost.create (Sim.cost t.sim) ~gc_threads:1 in
  let freed, _copied =
    Gc_kernels.full_collection t.heap tc ~roots:t.roots ~gc_alloc:t.gc_alloc
      ~compact:emergency
  in
  t.freed_bytes <- t.freed_bytes + freed;
  Heap.ensure_reserve t.heap

let factory : Collector.factory =
 fun sim heap ~roots ->
  let t =
    { sim; heap; roots;
      gc_alloc = Heap.make_allocator heap;
      collections = 0;
      freed_bytes = 0 }
  in
  Heap.ensure_reserve heap;
  { Collector.name = "Ideal";
    (* Pin the header RC like every tracing collector, so the integrity
       verifier's pinned-discipline checks hold on ideal heaps too. *)
    on_alloc = (fun obj -> Heap.pin heap obj);
    on_write = (fun _ _ _ -> ());
    write_extra_ns = 0.0;
    read_extra_ns = 0.0;
    (* No trigger-driven collections: reclamation is free, so it runs
       only on demand from the allocation slow path. *)
    poll = (fun () -> ());
    collect_for_alloc =
      (fun pressure ->
        match pressure with
        | Collector.Young | Collector.Full -> collect t
        | Collector.Emergency -> collect ~emergency:true t);
    conc_active = (fun () -> 0);
    conc_run = (fun ~budget_ns:_ -> 0.0);
    conc_backlog = (fun () -> 0);
    on_finish = (fun () -> ());
    stats =
      (fun () ->
        [ ("collections", Float.of_int t.collections);
          ("freed_bytes", Float.of_int t.freed_bytes) ]);
    introspect = Collector.no_introspection }
