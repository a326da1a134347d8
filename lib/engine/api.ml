open Repro_heap

let root_slots = 256

type oom_info = {
  collector : string;
  requested_bytes : int;
  live_bytes : int;
  heap_bytes : int;
}

type ladder_counts = {
  mutable young_collections : int;
  mutable full_collections : int;
  mutable emergency_compactions : int;
  mutable reserve_releases : int;
  mutable exhaustions : int;
}

let ladder_alist l =
  [ ("ladder_young", Float.of_int l.young_collections);
    ("ladder_full", Float.of_int l.full_collections);
    ("ladder_emergency", Float.of_int l.emergency_compactions);
    ("ladder_reserve_release", Float.of_int l.reserve_releases);
    ("ladder_oom", Float.of_int l.exhaustions) ]

type t = {
  sim : Sim.t;
  heap : Heap.t;
  collector : Collector.t;
  allocator : Bump_allocator.t;
  roots : int array;
  flush_threshold : float;
  ladder : ladder_counts;
  (* Hot-path caches, all derivable from the fields above: the live
     [Sim.hot] record (so per-event charges are plain unboxed float
     stores, no function-call boxing) and the per-event charge sums
     [cost + collector barrier extra], precomputed because the collector's
     extras are fixed at creation. *)
  h : Sim.hot;
  write_charge : float;  (* write_ns + write_extra_ns *)
  read_charge : float;  (* read_ns + read_extra_ns *)
  write_extra : float;
  read_extra : float;
  mutable last_oom : oom_info option;  (* set by the option-free alloc path *)
}

let create sim heap factory =
  let roots = Array.make root_slots Obj_model.null in
  let collector = factory sim heap ~roots in
  let c = Sim.cost sim in
  { sim;
    heap;
    collector;
    allocator = Heap.make_allocator heap;
    roots;
    flush_threshold = 5_000.0;
    ladder =
      { young_collections = 0;
        full_collections = 0;
        emergency_compactions = 0;
        reserve_releases = 0;
        exhaustions = 0 };
    h = Sim.hot sim;
    write_charge = c.write_ns +. collector.Collector.write_extra_ns;
    read_charge = c.read_ns +. collector.Collector.read_extra_ns;
    write_extra = collector.Collector.write_extra_ns;
    read_extra = collector.Collector.read_extra_ns;
    last_oom = None }

let sim t = t.sim
let heap t = t.heap
let collector t = t.collector
let roots t = t.roots
let ladder t = t.ladder

type gc_signal = {
  busy_until : float;
  pause_start : float;
  pause_end : float;
  concurrent_active : bool;
  drain_backlog : int;
  occupancy : float;
}

let gc_signal t =
  let pause_start, pause_end = Sim.last_pause t.sim in
  let total = Repro_heap.Heap.total_bytes t.heap in
  { busy_until = Sim.now t.sim;
    pause_start;
    pause_end;
    concurrent_active = t.collector.Collector.conc_active () > 0;
    drain_backlog = t.collector.Collector.conc_backlog ();
    occupancy =
      (if total > 0 then
         Float.of_int (Repro_heap.Heap.live_bytes t.heap)
         /. Float.of_int total
       else 0.0) }

let flush t =
  Sim.flush t.sim ~conc_threads:(t.collector.conc_active ())
    ~conc_run:t.collector.conc_run

let maybe_flush t = if t.h.Sim.pending >= t.flush_threshold then flush t

let safepoint t =
  let tr = Sim.tracer t.sim in
  if Tracer.active tr then tr.Tracer.safepoint ();
  flush t;
  t.collector.poll ()

let charge_alloc_receipt t =
  let r = Bump_allocator.receipt t.allocator in
  let c = Sim.cost t.sim in
  let contention =
    c.buffer_contention_ns *. Float.of_int t.heap.cfg.free_buffer_entries
  in
  let ns =
    (Float.of_int r.slow_allocs *. c.alloc_slow_ns)
    +. (Float.of_int r.blocks_acquired *. (c.block_acquire_ns +. contention))
    +. (Float.of_int r.bytes_zeroed *. c.zero_ns_per_byte)
  in
  if ns > 0.0 then Sim.charge_mutator t.sim ns;
  Bump_allocator.reset_receipt t.allocator

let describe_oom (o : oom_info) =
  Printf.sprintf "%s: cannot allocate %d bytes (live %d / heap %d)" o.collector
    o.requested_bytes o.live_bytes o.heap_bytes

(* Successful allocation epilogue: charge, account, run the collector's
   hook, park the object in the scratch root, let the collector poll. *)
let alloc_done t (obj : Obj_model.t) =
  charge_alloc_receipt t;
  Sim.note_alloc t.sim ~bytes:obj.size;
  t.collector.on_alloc obj;
  (* Hold the new object in the scratch root across the safepoint —
     the register/stack reference a real mutator would have. *)
  t.roots.(root_slots - 1) <- obj.id;
  maybe_flush t;
  t.collector.poll ();
  obj

(* The degradation ladder, out of line so the fast path stays small:
   escalate one rung at a time, retrying the allocation after each
   collection. Returns the none-handle (id = null) on exhaustion, with
   [t.last_oom] describing the failure. *)
let alloc_slow t ~size ~nfields =
  charge_alloc_receipt t;
  flush t;
  let l = t.ladder in
  (* Everything from here until the allocation succeeds (or the heap is
     exhausted) is wall-clock time the mutator spends stalled in the
     allocation slow path — a distilled-cost component. *)
  let stall_start = Sim.now t.sim in
  let note_stall () =
    Sim.note_alloc_stall t.sim (Sim.now t.sim -. stall_start)
  in
  let rec escalate = function
    | rung :: rest ->
      t.collector.collect_for_alloc rung;
      (match rung with
      | Collector.Young -> l.young_collections <- l.young_collections + 1
      | Collector.Full -> l.full_collections <- l.full_collections + 1
      | Collector.Emergency ->
        l.emergency_compactions <- l.emergency_compactions + 1);
      let obj = Heap.alloc_fast t.heap t.allocator ~size ~nfields in
      if obj.Obj_model.id <> Obj_model.null then begin
        note_stall ();
        alloc_done t obj
      end
      else begin
        charge_alloc_receipt t;
        escalate rest
      end
    | [] ->
      (* Past the last rung: hand the to-space reserve to the mutator. *)
      Heap.release_reserve t.heap;
      l.reserve_releases <- l.reserve_releases + 1;
      let obj = Heap.alloc_fast t.heap t.allocator ~size ~nfields in
      if obj.Obj_model.id <> Obj_model.null then begin
        note_stall ();
        (* No poll: the collector just proved it cannot make space. *)
        charge_alloc_receipt t;
        Sim.note_alloc t.sim ~bytes:obj.Obj_model.size;
        t.collector.on_alloc obj;
        t.roots.(root_slots - 1) <- obj.Obj_model.id;
        obj
      end
      else begin
        note_stall ();
        charge_alloc_receipt t;
        l.exhaustions <- l.exhaustions + 1;
        t.last_oom <-
          Some
            { collector = t.collector.name;
              requested_bytes = size;
              live_bytes = Heap.live_bytes t.heap;
              heap_bytes = Heap.total_bytes t.heap };
        obj
      end
  in
  escalate [ Collector.Young; Collector.Full; Collector.Emergency ]

(* The one allocation path: returns the new object's canonical handle, or
   the registry's none-handle (id = null) on heap exhaustion, and tees the
   outcome to the recorder. A successful allocation never boxes a
   result. *)
let alloc_fast t ~size ~nfields =
  let c = Sim.cost t.sim in
  t.h.Sim.pending <- t.h.Sim.pending +. c.alloc_fast_ns;
  let faults = Sim.faults t.sim in
  let first =
    if Fault.active faults && faults.fail_alloc () then
      Obj_model.Registry.none_handle t.heap.Heap.registry
    else Heap.alloc_fast t.heap t.allocator ~size ~nfields
  in
  let obj =
    if first.Obj_model.id <> Obj_model.null then alloc_done t first
    else alloc_slow t ~size ~nfields
  in
  let tr = Sim.tracer t.sim in
  if Tracer.active tr then begin
    if obj.Obj_model.id <> Obj_model.null then
      tr.Tracer.alloc ~id:obj.Obj_model.id ~size ~nfields
        ~large:(size > t.heap.Heap.cfg.los_threshold)
    else tr.Tracer.alloc_failed ~size ~nfields
  end;
  obj

let last_oom t =
  match t.last_oom with
  | Some info -> info
  | None ->
    { collector = t.collector.name;
      requested_bytes = 0;
      live_bytes = Heap.live_bytes t.heap;
      heap_bytes = Heap.total_bytes t.heap }

(* Injected RC corruption targets a body granule when the object has one
   (an orphan count or a punched straddle marker — both off-header
   corruptions the verifier must catch), else the header itself. *)
let apply_rc_flip t (obj : Obj_model.t) =
  if not (Obj_model.is_freed obj) then begin
    let cfg = t.heap.Heap.cfg in
    let stuck = Heap_config.stuck_count cfg in
    let addr =
      if obj.size > cfg.granule_bytes then Obj_model.addr obj + cfg.granule_bytes
      else Obj_model.addr obj
    in
    let v = Rc_table.get t.heap.rc cfg addr in
    Rc_table.set t.heap.rc cfg addr (if v >= stuck then 0 else v + 1)
  end

(* The per-event entry points below are [@inline] so the replayer's
   dispatch gets their bodies (the build has no flambda; without the
   attribute [work]'s float argument would be boxed at every call). *)
let[@inline] write t obj field ref_id =
  let tr = Sim.tracer t.sim in
  if Tracer.active tr then
    tr.Tracer.write ~src:obj.Obj_model.id ~field ~value:ref_id;
  t.h.Sim.pending <- t.h.Sim.pending +. t.write_charge;
  (* The [write_extra] component is the collector's inline barrier
     fast path — barrier-attributed for distilled-cost accounting. Slow
     paths add their own {!Sim.note_barrier} charges. *)
  if t.write_extra > 0.0 then
    t.h.Sim.d_barrier <- t.h.Sim.d_barrier +. t.write_extra;
  (* A store through a freed handle (cross-collector replay can reach one)
     is a no-op in the object model, so it must not reach the barrier:
     the handle has no address, and its slot may belong to a new owner.
     The charge, the tracer event and the fault draws above and below
     still happen, so fault schedules do not shift. *)
  let live = not (Obj_model.is_freed obj) in
  let faults = Sim.faults t.sim in
  if Fault.active faults then begin
    if (not (faults.drop_barrier ())) && live then
      t.collector.on_write obj field ref_id;
    if faults.flip_rc () then apply_rc_flip t obj
  end
  else if live then t.collector.on_write obj field ref_id;
  Obj_model.set_field obj field ref_id;
  maybe_flush t

let[@inline] read t obj field =
  let tr = Sim.tracer t.sim in
  if Tracer.active tr then tr.Tracer.read ~src:obj.Obj_model.id ~field;
  t.h.Sim.pending <- t.h.Sim.pending +. t.read_charge;
  if t.read_extra > 0.0 then
    t.h.Sim.d_barrier <- t.h.Sim.d_barrier +. t.read_extra;
  maybe_flush t;
  Obj_model.field obj field

let[@inline] work t ~ns =
  let tr = Sim.tracer t.sim in
  if Tracer.active tr then tr.Tracer.work ~ns;
  t.h.Sim.pending <- t.h.Sim.pending +. ns;
  maybe_flush t

let[@inline] set_root t slot ref_id =
  let tr = Sim.tracer t.sim in
  if Tracer.active tr then tr.Tracer.root ~slot ~value:ref_id;
  t.h.Sim.pending <- t.h.Sim.pending +. (Sim.cost t.sim).write_ns;
  t.roots.(slot) <- ref_id

let get_root t slot =
  let c = Sim.cost t.sim in
  Sim.charge_mutator t.sim c.read_ns;
  t.roots.(slot)

let idle_until t until =
  flush t;
  Sim.advance_idle t.sim ~until ~conc_threads:(t.collector.conc_active ())
    ~conc_run:t.collector.conc_run

let finish t =
  let tr = Sim.tracer t.sim in
  if Tracer.active tr then tr.Tracer.finish ();
  flush t;
  t.collector.on_finish ();
  flush t
