open Repro_util
open Repro_heap
open Repro_engine

let null = Obj_model.null

type params = {
  name : string;
  lvb_ns : float -> float;  (* read barrier cost given [Cost_model.lvb_ns] *)
  satb_write_barrier : bool;  (* Shenandoah logs overwritten values while marking *)
  conc_threads : int;
  trigger_free_fraction : float;  (* start a cycle when free space drops below *)
  cset_occupancy_max : float;  (* live fraction under which a block joins the cset *)
  min_heap_bytes : int option;  (* refuse smaller heaps (ZGC, §4) *)
}

let shenandoah_params =
  { name = "Shenandoah";
    lvb_ns = (fun base -> base);
    satb_write_barrier = true;
    conc_threads = 4;
    (* Cycles start early (Shenandoah's adaptive heuristic paces by
       allocation rate): at 2x heaps there is runway; at 1.3x there
       is not, and allocation stalls dominate (Table 1). *)
    trigger_free_fraction = 0.30;
    cset_occupancy_max = 0.6;
    min_heap_bytes = None }

let zgc_params =
  { name = "ZGC";
    (* Coloured pointers make the ZGC load barrier slightly cheaper. *)
    lvb_ns = (fun base -> base *. 0.85);
    (* Non-generational with no SATB assist: this version of ZGC lags
       further behind high allocation rates (§5.1, h2's tail). *)
    satb_write_barrier = false;
    conc_threads = 2;
    trigger_free_fraction = 0.35;
    cset_occupancy_max = 0.6;
    (* This version of ZGC requires a substantial minimum heap (§4) —
       scaled like the benchmark heaps (~1/32 of real sizes). *)
    min_heap_bytes = Some (4 * 1024 * 1024 + 512 * 1024) }

type phase = Idle | Mark | Evac | Update

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  p : params;
  gc_alloc : Bump_allocator.t;
  gray : Vec.t;
  mutable phase : phase;
  mutable final_mark_ready : bool;
  mutable cleanup_ready : bool;
  mutable cset : int list;
  evac_queue : Vec.t;
  mutable update_work : float;
  (* Statistics. *)
  mutable cycles : int;
  mutable degenerated : int;
  mutable copied_bytes : int;
  mutable stall_ns : float;
  mutable in_collection : bool;
}

let gray_push t id =
  if id <> null && not (Mark_bitset.marked t.heap.marks id) then begin
    Mark_bitset.mark t.heap.marks id;
    Vec.push t.gray id
  end

let scan t id =
  let obj = Obj_model.Registry.find_live t.heap.registry id in
  if obj.Obj_model.id <> null then
    for j = 0 to Obj_model.nfields obj - 1 do
      let r = Obj_model.field obj j in
      if r <> null then gray_push t r
    done

(* --- Pauses ------------------------------------------------------------ *)

let init_mark t =
  if t.phase = Idle && not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    t.cycles <- t.cycles + 1;
    Heap.retire_all_allocators t.heap;
    Trace_cost.add_parallel tc ~threads:c.gc_threads
      ~cost_ns:(Float.of_int (Array.length t.roots) *. c.root_scan_ns);
    Mark_bitset.clear t.heap.marks;
    Gc_kernels.iter_roots t.roots (gray_push t);
    t.phase <- Mark;
    t.final_mark_ready <- false;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

let final_mark t =
  if t.phase = Mark && not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    Heap.retire_all_allocators t.heap;
    Gc_kernels.drain_marked t.heap tc ~cost:c ~threads:c.gc_threads
      ~gray:t.gray;
    t.final_mark_ready <- false;
    (* Select the collection set: sparsest blocks by marked live bytes.
       Blocks come in ascending order and push-front, so the cset is in
       descending block order. *)
    let block_bytes = Float.of_int t.heap.cfg.block_bytes in
    let cset = ref [] in
    Gc_kernels.marked_block_liveness t.heap (fun b live ->
        Trace_cost.add_parallel tc ~threads:c.gc_threads ~cost_ns:c.sweep_line_ns;
        if Float.of_int live < t.p.cset_occupancy_max *. block_bytes then begin
          Blocks.set_target t.heap.blocks b true;
          cset := b :: !cset
        end);
    t.cset <- !cset;
    (* Queue every marked resident of the cset for concurrent copying. *)
    Vec.clear t.evac_queue;
    List.iter
      (fun b ->
        Vec.iter
          (fun id -> if Mark_bitset.marked t.heap.marks id then Vec.push t.evac_queue id)
          (Blocks.residents t.heap.blocks b))
      !cset;
    (* Dead large objects are reclaimed at final mark. *)
    Obj_model.Registry.iter
      (fun obj ->
        if Heap.is_los t.heap obj && not (Mark_bitset.marked t.heap.marks obj.id)
        then Heap.free_object t.heap obj)
      t.heap.registry;
    Heap.release_reserve t.heap;
    t.phase <- Evac;
    Sim.set_interference t.sim c.conc_copy_interference;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

let cleanup t =
  if t.phase = Update && t.update_work <= 0.0 && not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    Heap.retire_all_allocators t.heap;
    Bump_allocator.retire_all t.gc_alloc;
    (* Anything still resident in the cset is either unmarked (dead) or
       an evacuation failure; only the dead are freed. *)
    Gc_kernels.sweep_blocks t.heap tc ~cost:c ~threads:c.gc_threads
      ~blocks:(Array.of_list t.cset)
      ~dead:(fun obj -> not (Mark_bitset.marked t.heap.marks obj.Obj_model.id));
    Gc_kernels.clear_targets t.heap t.cset;
    t.cset <- [];
    Heap.rebuild_free_lists t.heap;
    Heap.ensure_reserve t.heap;
    Mark_bitset.clear t.heap.marks;
    Heap.clear_touched t.heap;
    Sim.set_interference t.sim 0.0;
    t.phase <- Idle;
    t.cleanup_ready <- false;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

(* --- Concurrent work ---------------------------------------------------- *)

let conc_active t () =
  match t.phase with
  | Mark -> if Vec.is_empty t.gray then 0 else t.p.conc_threads
  | Evac | Update -> t.p.conc_threads
  | Idle -> 0

let conc_run t ~budget_ns =
  let c = Sim.cost t.sim in
  let penalty = 1.0 /. c.conc_efficiency in
  let consumed = ref 0.0 in
  let continue_ = ref true in
  while !continue_ && !consumed < budget_ns do
    match t.phase with
    | Mark ->
      if Vec.is_empty t.gray then begin
        t.final_mark_ready <- true;
        continue_ := false
      end
      else begin
        scan t (Vec.pop t.gray);
        consumed := !consumed +. (c.trace_obj_ns *. penalty)
      end
    | Evac ->
      if Vec.is_empty t.evac_queue then begin
        (* Reference updating visits every live object's fields. *)
        t.update_work <-
          Float.of_int (Obj_model.Registry.count t.heap.registry)
          *. c.trace_obj_ns *. 0.15;
        t.phase <- Update
      end
      else begin
        let id = Vec.pop t.evac_queue in
        let obj = Obj_model.Registry.find_live t.heap.registry id in
        if
          obj.Obj_model.id <> null
          && (not (Heap.is_los t.heap obj))
          && Blocks.target t.heap.blocks
               (Addr.block_of t.heap.cfg (Obj_model.addr obj))
        then begin
          if Heap.evacuate t.heap t.gc_alloc obj then begin
            t.copied_bytes <- t.copied_bytes + obj.size;
            consumed :=
              !consumed +. (c.copy_ns_per_byte *. Float.of_int obj.size *. penalty)
          end
          else consumed := !consumed +. (c.trace_obj_ns *. penalty)
        end;
        consumed := !consumed +. (c.trace_obj_ns *. penalty)
      end
    | Update ->
      if t.update_work <= 0.0 then begin
        t.cleanup_ready <- true;
        continue_ := false
      end
      else begin
        let slice = Float.min t.update_work (budget_ns -. !consumed) in
        let slice = Float.max slice 1.0 in
        t.update_work <- t.update_work -. slice;
        consumed := !consumed +. slice
      end
    | Idle -> continue_ := false
  done;
  !consumed

(* --- Degenerated / full collection -------------------------------------- *)

let full_gc t =
  if not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    t.degenerated <- t.degenerated + 1;
    Heap.release_reserve t.heap;
    t.phase <- Idle;
    t.final_mark_ready <- false;
    t.cleanup_ready <- false;
    Gc_kernels.clear_targets t.heap t.cset;
    t.cset <- [];
    Vec.clear t.gray;
    Vec.clear t.evac_queue;
    Sim.set_interference t.sim 0.0;
    Mark_bitset.clear t.heap.marks;
    Heap.retire_all_allocators t.heap;
    (* Degenerated collections mark, sweep, then slide-compact. *)
    Gc_kernels.mark_from t.heap tc ~cost:c ~threads:c.gc_threads
      ~seeds:(Gc_kernels.iter_roots t.roots);
    ignore (Gc_kernels.sweep_unmarked t.heap tc ~cost:c ~threads:c.gc_threads);
    t.copied_bytes <-
      t.copied_bytes
      + Compaction.compact t.heap tc ~cost:c ~threads:c.gc_threads
          ~gc_alloc:t.gc_alloc;
    Mark_bitset.clear t.heap.marks;
    Heap.clear_touched t.heap;
    Heap.ensure_reserve t.heap;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

let run_transitions t =
  (* Phase-completion conditions are re-derived here: when a phase's work
     ran dry, [conc_active] drops to zero and [conc_run] stops being
     called, so the ready flags cannot be the only path forward. *)
  if t.phase = Mark && Vec.is_empty t.gray then t.final_mark_ready <- true;
  if t.phase = Update && t.update_work <= 0.0 then t.cleanup_ready <- true;
  if t.final_mark_ready then final_mark t;
  if t.cleanup_ready then cleanup t

(* Allocation stall: the mutator waits while the concurrent cycle frees
   space — this, not pause time, is where the cost of outrunning a
   concurrent evacuating collector lands. *)
let alloc_stall t =
  if t.phase = Idle then init_mark t;
  let slice = 200_000.0 in
  let tries = ref 0 in
  while Heap.available_blocks t.heap = 0 && t.phase <> Idle && !tries < 5_000 do
    incr tries;
    let target = Sim.now t.sim +. slice in
    t.stall_ns <- t.stall_ns +. slice;
    Sim.advance_idle t.sim ~until:target ~conc_threads:(conc_active t ())
      ~conc_run:(fun ~budget_ns -> conc_run t ~budget_ns);
    run_transitions t
  done

(* The degradation ladder. [Young]: stall on concurrent-cycle progress
   (the collector's routine response to allocation failure). [Full] and
   [Emergency]: the degenerated STW full collection — large objects need
   whole free blocks, so it also compacts. *)
let collect_for_alloc t = function
  | Collector.Young -> alloc_stall t
  | Collector.Full | Collector.Emergency -> full_gc t

(* --- Mutator hooks ------------------------------------------------------- *)

let on_write t (src : Obj_model.t) field _new_ref =
  if t.phase = Mark then begin
    let old = Obj_model.field src field in
    if old <> null then begin
      if t.p.satb_write_barrier then
        Sim.charge_mutator t.sim (Sim.cost t.sim).satb_wb_ns;
      gray_push t old
    end
  end

let on_alloc t (obj : Obj_model.t) =
  Heap.pin t.heap obj;
  (* Allocate black during a cycle: new objects are implicitly live. *)
  if t.phase <> Idle then Mark_bitset.mark t.heap.marks obj.id

let free_fraction t =
  Float.of_int (Blocks.count_state t.heap.blocks Blocks.Free)
  /. Float.of_int (Heap_config.blocks t.heap.cfg)

let poll t () =
  run_transitions t;
  if t.phase = Idle && free_fraction t < t.p.trigger_free_fraction then init_mark t

let factory p : Collector.factory =
 fun sim heap ~roots ->
  (match p.min_heap_bytes with
  | Some min when heap.Heap.cfg.heap_bytes < min ->
    raise
      (Collector.Unsupported
         (Printf.sprintf "%s requires at least %d MB of heap" p.name
            (min / 1024 / 1024)))
  | Some _ | None -> ());
  let t =
    { sim;
      heap;
      roots;
      p;
      gc_alloc = Heap.make_allocator heap;
      gray = Vec.create ~capacity:256 ();
      phase = Idle;
      final_mark_ready = false;
      cleanup_ready = false;
      cset = [];
      evac_queue = Vec.create ~capacity:256 ();
      update_work = 0.0;
      cycles = 0;
      degenerated = 0;
      copied_bytes = 0;
      stall_ns = 0.0;
      in_collection = false }
  in
  Heap.ensure_reserve heap;
  let c = Sim.cost sim in
  { Collector.name = p.name;
    on_alloc = on_alloc t;
    on_write = on_write t;
    write_extra_ns = (if p.satb_write_barrier then c.wb_fast_ns else 0.0);
    read_extra_ns = p.lvb_ns c.lvb_ns;
    poll = poll t;
    collect_for_alloc = collect_for_alloc t;
    conc_active = conc_active t;
    conc_run = (fun ~budget_ns -> conc_run t ~budget_ns);
    conc_backlog = (fun () -> 0);
    on_finish = (fun () -> Sim.set_interference t.sim 0.0);
    stats =
      (fun () ->
        [ ("cycles", Float.of_int t.cycles);
          ("degenerated", Float.of_int t.degenerated);
          ("copied_bytes", Float.of_int t.copied_bytes);
          ("stall_ns", t.stall_ns) ]);
    introspect =
      { Collector.no_introspection with
        trace_active = (fun () -> t.phase <> Idle) } }

let shenandoah = factory shenandoah_params
let zgc = factory zgc_params
