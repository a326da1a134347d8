open Repro_util
open Repro_heap
open Repro_engine

let null = Obj_model.null

type epoch_feedback = {
  now_ns : float;
  pause_wall_ns : float;
  pause_cpu_ns : float;
}

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  mutable cfg : Lxr_config.t;
  tune : (epoch_feedback -> Lxr_config.t -> Lxr_config.t) option;
  stats : Lxr_stats.t;
  (* Write barrier buffers (§3.4). *)
  decbuf : Vec.t;  (* overwritten referents awaiting decrements *)
  modbuf : Vec.t;  (* (object id, field) pairs, packed flat *)
  objbuf : Vec.t;  (* object-granularity barrier: logged object ids *)
  obj_snapshots : (int, int array) Hashtbl.t;  (* before-images at logging *)
  prev_roots : Vec.t;  (* root referents incremented at t_n, decremented at t_n+1 *)
  (* The RC pause's work queues. *)
  root_ids : Vec.t;
  inc_queue : Vec.t;
  dec_pending : Vec.t;
  evac_queue : Vec.t;
  (* Lazy decrement machinery (§3.2.1). *)
  lazy_queue : Vec.t;
  lazy_sweep : Vec.t;  (* blocks touched by decrements, swept after the decs *)
  lazy_sweep_member : Bytes.t;  (* one byte per block: on [lazy_sweep]? *)
  (* SATB trace state (§3.2.2). *)
  mutable satb_active : bool;
  mutable satb_completed : bool;
  mutable satb_requested : bool;
  mutable satb_start_epoch : int;
  satb_gray : Vec.t;
  (* Mature evacuation (§3.3.2). *)
  remset : Remset.t;
  mutable evac_targets : int list;
  (* Predictors and triggers. *)
  survival_rate : Predictor.t;
  live_blocks_pred : Predictor.t;
  mutable alloc_bytes_epoch : int;
  mutable promoted_bytes_epoch : int;
  mutable pauses_since_satb : int;
  los_young : Vec.t;
  gc_alloc : Bump_allocator.t;
}

(* Option-free lookup for the inc/dec/trace hot paths: returns the
   registry's canonical none-handle (id = null) when absent. *)
let[@inline] find_live t id = Obj_model.Registry.find_live t.heap.registry id

let in_target t (obj : Obj_model.t) =
  (not (Obj_model.is_freed obj))
  && Blocks.target t.heap.blocks (Addr.block_of t.heap.cfg (Obj_model.addr obj))

let line_tag t (obj : Obj_model.t) =
  Reuse_table.get t.heap.reuse (Addr.line_of t.heap.cfg (Obj_model.addr obj))

(* Trace machinery is live (and the remset maintained) from SATB start
   until the evacuation pause clears the targets. *)
let remset_live t = t.evac_targets <> []

let note_remset t ~(src : Obj_model.t) ~field ~(referent : Obj_model.t) =
  if remset_live t && in_target t referent then begin
    let faults = Sim.faults t.sim in
    let field =
      (* Injected corruption: record a nonsense field index. The drain
         must survive it (stale-tolerant bounds check) and the verifier
         must flag it. *)
      if Fault.active faults && faults.corrupt_remset () then field + 10_000
      else field
    in
    Remset.add t.remset ~src:src.id ~field ~tag:(line_tag t src);
    t.stats.remset_entries <- t.stats.remset_entries + 1
  end

(* --- SATB trace (§3.2.2) --------------------------------------------- *)

let satb_tracing t = t.satb_active && not t.satb_completed

let gray_push t id = Gc_kernels.mark_push t.heap.marks t.satb_gray id

(* Scan one gray object, graying its referents onto [gray]: the
   mature-only optimization skips objects with a zero reference count
   (young objects are covered by RC). *)
let satb_scan t gray id =
  let obj = find_live t id in
  if obj.Obj_model.id <> null && Heap.rc_of t.heap obj > 0 then
    for i = 0 to Obj_model.nfields obj - 1 do
      let r = Obj_model.field obj i in
      if r <> null then begin
        let child = find_live t r in
        if child.Obj_model.id <> null then
          note_remset t ~src:obj ~field:i ~referent:child;
        Gc_kernels.mark_push t.heap.marks gray r
      end
    done

(* The interruption invariant: RC may never delete an unmarked object
   while an SATB trace is underway. Mark the dying object and scan it so
   the trace never follows a reference into freed space. *)
let satb_shield t (obj : Obj_model.t) =
  if satb_tracing t
     && Obj_model.birth_epoch obj < t.satb_start_epoch
     && not (Mark_bitset.marked t.heap.marks obj.id) then begin
    Mark_bitset.mark t.heap.marks obj.id;
    Obj_model.iter_fields (fun r -> if r <> null then gray_push t r) obj
  end

(* --- Decrements ------------------------------------------------------- *)

let note_dec_sweep t (obj : Obj_model.t) =
  if not (Heap.is_los t.heap obj) then begin
    let b = Addr.block_of t.heap.cfg (Obj_model.addr obj) in
    if Bytes.get t.lazy_sweep_member b = '\000' then begin
      Bytes.set t.lazy_sweep_member b '\001';
      Vec.push t.lazy_sweep b
    end
  end

(* Applies [sweep] to every block on [lazy_sweep] in push order, then
   empties it. [sweep] must not push onto it. *)
let drain_lazy_sweep t sweep =
  Vec.iter
    (fun b ->
      Bytes.set t.lazy_sweep_member b '\000';
      sweep b)
    t.lazy_sweep;
  Vec.clear t.lazy_sweep

(* Apply one decrement; recursive decrements for a dying object's
   referents are pushed onto [queue]. *)
let apply_dec t queue id =
  let faults = Sim.faults t.sim in
  if Fault.active faults && faults.skip_decrement () then ()
  else begin
    let obj = find_live t id in
    if obj.Obj_model.id <> null then begin
      t.stats.decrements <- t.stats.decrements + 1;
      if Heap.rc_dec t.heap obj = 0 then begin
        satb_shield t obj;
        for j = 0 to Obj_model.nfields obj - 1 do
          let r = Obj_model.field obj j in
          if r <> null then Vec.push queue r
        done;
        note_dec_sweep t obj;
        t.stats.old_reclaimed <- t.stats.old_reclaimed + obj.size;
        Heap.free_object t.heap obj
      end
    end
  end

(* --- Increments (§3.2.1) ---------------------------------------------- *)

(* Promotion: a young object just received its first increment. All its
   references are established, so it may be copied (young evacuation) and
   must start logging mutations; its referents receive increments. *)
let promote t tc queue (obj : Obj_model.t) =
  t.promoted_bytes_epoch <- t.promoted_bytes_epoch + obj.size;
  Obj_model.set_all_logged obj false;
  let c = Sim.cost t.sim in
  if t.cfg.evacuate_young
     && (not (Heap.is_los t.heap obj))
     && Blocks.young t.heap.blocks (Addr.block_of t.heap.cfg (Obj_model.addr obj))
     && Heap.evacuate t.heap t.gc_alloc obj
  then begin
    t.stats.young_evacuated <- t.stats.young_evacuated + obj.size;
    Trace_cost.add tc ~frontier:(Vec.length queue + 1)
      ~cost_ns:(c.copy_ns_per_byte *. Float.of_int obj.size)
  end;
  for i = 0 to Obj_model.nfields obj - 1 do
    let r = Obj_model.field obj i in
    if r <> null then begin
      let child = find_live t r in
      if child.Obj_model.id <> null then
        note_remset t ~src:obj ~field:i ~referent:child;
      Vec.push queue r
    end
  done

let apply_incs t tc queue =
  let c = Sim.cost t.sim in
  while not (Vec.is_empty queue) do
    let frontier = Vec.length queue in
    let id = Vec.pop queue in
    Trace_cost.add tc ~frontier ~cost_ns:c.inc_ns;
    let obj = find_live t id in
    if obj.Obj_model.id <> null then begin
      t.stats.increments <- t.stats.increments + 1;
      if Heap.rc_inc t.heap obj = 1 then promote t tc queue obj
    end
  done

(* --- Young sweep (§3.3.1) --------------------------------------------- *)

let young_sweep t tc =
  let clean = ref 0 in
  Gc_kernels.sweep_young t.heap tc ~los:t.los_young
    ~on_dead:(fun obj ->
      t.stats.young_reclaimed <- t.stats.young_reclaimed + obj.size)
    ~on_block:(fun _ ~young -> function
      | `Freed ->
        incr clean;
        if young then
          t.stats.clean_young_blocks <- t.stats.clean_young_blocks + 1
      | `Recyclable _ | `Full -> ());
  !clean

(* --- SATB begin / reclamation / evacuation ---------------------------- *)

let live_blocks t =
  Blocks.total t.heap.blocks - Blocks.count_state t.heap.blocks Blocks.Free

let begin_satb t root_ids =
  t.satb_active <- true;
  t.pauses_since_satb <- 0;
  t.satb_completed <- false;
  t.satb_start_epoch <- t.heap.epoch;
  t.stats.satb_pauses <- t.stats.satb_pauses + 1;
  Mark_bitset.clear t.heap.marks;
  Reuse_table.reset_all t.heap.reuse;
  Remset.clear t.remset;
  t.evac_targets <-
    Gc_kernels.select_fragmented t.heap ~max_blocks:t.cfg.max_evac_targets
      ~occupancy_max:t.cfg.evac_occupancy_max;
  Vec.iter (gray_push t) root_ids

let complete_satb t =
  t.satb_completed <- true;
  t.stats.satb_traces_completed <- t.stats.satb_traces_completed + 1

(* Trace to exhaustion inside a pause (the -SATB ablation, emergency
   collections, and end-of-run draining), in the kernels' breadth-first
   rounds. *)
let drain_satb_in_pause t tc =
  Gc_kernels.trace_rounds t.heap tc ~gray:t.satb_gray (satb_scan t);
  if satb_tracing t then complete_satb t

(* Reclaim objects the completed trace left unmarked, in ascending slot
   order. Only objects mature at trace start participate; younger
   objects are covered by RC. Each run of [reclaim_span] slots charges
   its mature objects at once: the float sum of the charges depends on
   that grouping. *)
let reclaim_span = 512

let satb_reclaim t tc =
  let c = Sim.cost t.sim in
  let reg = t.heap.registry in
  let slots = Obj_model.Registry.slot_count reg in
  let lo = ref 0 in
  while !lo < slots do
    let seen = ref 0 in
    for slot = !lo to min slots (!lo + reclaim_span) - 1 do
      let obj = Obj_model.Registry.handle_at_live reg slot in
      if obj.id <> Obj_model.null
         && Obj_model.birth_epoch obj < t.satb_start_epoch
      then begin
        incr seen;
        if not (Mark_bitset.marked t.heap.marks obj.id) then begin
          note_dec_sweep t obj;
          t.stats.satb_reclaimed <- t.stats.satb_reclaimed + obj.size;
          Heap.free_object t.heap obj
        end
        else if Heap.rc_is_stuck t.heap obj then
          t.stats.stuck_objects <- t.stats.stuck_objects + 1
      end
    done;
    t.stats.mature_objects_seen <- t.stats.mature_objects_seen + !seen;
    if !seen > 0 then
      Trace_cost.add_parallel tc ~cost_ns:(c.dec_ns *. Float.of_int !seen);
    lo := !lo + reclaim_span
  done;
  Predictor.observe t.live_blocks_pred (Float.of_int (live_blocks t))

(* Evacuate part (or all) of the evacuation set using the current roots
   and the remembered set as roots; the trace never leaves the chosen
   blocks (§3.3.2). With region-based sets, entries whose referent lives
   in a deferred region are kept for a later pause. *)
let mature_evacuate t tc root_ids ~chosen =
  let c = Sim.cost t.sim in
  let chosen_set = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace chosen_set b ()) chosen;
  let in_chosen (obj : Obj_model.t) =
    (not (Obj_model.is_freed obj))
    && Hashtbl.mem chosen_set (Addr.block_of t.heap.cfg (Obj_model.addr obj))
  in
  let queue = t.evac_queue in
  let deferred = ref [] in
  let consider id =
    if id <> null then begin
      let obj = find_live t id in
      if obj.Obj_model.id <> null && in_chosen obj then Vec.push queue obj.id
    end
  in
  Vec.iter consider root_ids;
  Remset.drain t.remset (fun ({ src; field; tag } as entry) ->
      Trace_cost.add_parallel tc ~cost_ns:c.remset_entry_ns;
      let src_obj = find_live t src in
      if src_obj.Obj_model.id = null then
        t.stats.remset_stale <- t.stats.remset_stale + 1
      else if line_tag t src_obj > tag then
        (* The source line was reused after this entry was created. *)
        t.stats.remset_stale <- t.stats.remset_stale + 1
      else if field < 0 || field >= Obj_model.nfields src_obj then
        (* A corrupt entry (out-of-range field) is treated like a stale
           one rather than crashing the pause. *)
        t.stats.remset_stale <- t.stats.remset_stale + 1
      else begin
        let r = Obj_model.field src_obj field in
        let referent = find_live t r in
        if referent.Obj_model.id <> null then
          if in_chosen referent then Vec.push queue referent.id
          else if in_target t referent then
            (* A deferred region's entry: keep it for that region's pause. *)
            deferred := entry :: !deferred
      end);
  List.iter
    (fun { Remset.src; field; tag } -> Remset.add t.remset ~src ~field ~tag)
    !deferred;
  while not (Vec.is_empty queue) do
    let frontier = Vec.length queue in
    let id = Vec.pop queue in
    let obj = find_live t id in
    if
      obj.Obj_model.id <> null
      && in_chosen obj
      && Heap.evacuate t.heap t.gc_alloc obj
    then begin
      t.stats.mature_evacuated <- t.stats.mature_evacuated + obj.size;
      Trace_cost.add tc ~frontier
        ~cost_ns:(c.copy_ns_per_byte *. Float.of_int obj.size);
      Obj_model.iter_fields consider obj
    end
  done;
  List.iter
    (fun b ->
      Blocks.set_target t.heap.blocks b false;
      Trace_cost.add_parallel tc ~cost_ns:c.sweep_block_ns;
      ignore (Heap.rc_sweep_block t.heap b))
    chosen;
  t.evac_targets <- List.filter (fun b -> not (Hashtbl.mem chosen_set b)) t.evac_targets

(* Pick the next regions of the evacuation set to empty at this pause. *)
let next_evac_chunk t =
  match t.cfg.evac_regions_per_pause with
  | None -> t.evac_targets
  | Some n ->
    let region b = b / t.cfg.evac_region_blocks in
    let regions =
      List.sort_uniq compare (List.map region t.evac_targets)
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | r :: rest -> r :: take (k - 1) rest
    in
    let now = take (max 1 n) regions in
    List.filter (fun b -> List.mem (region b) now) t.evac_targets

(* --- The RC pause (§3.2.1, Figure 2) ----------------------------------- *)

(* One RC epoch's pause body; returns the pause label. *)
let rc_epoch t tc =
  let c = Sim.cost t.sim in
  t.stats.rc_pauses <- t.stats.rc_pauses + 1;
  Heap.retire_all_allocators t.heap;
  (* Unfinished lazy decrements from the previous epoch come first. *)
  if not (Vec.is_empty t.lazy_queue) then begin
    t.stats.unfinished_lazy_pauses <- t.stats.unfinished_lazy_pauses + 1;
    Gc_kernels.drain_decrements tc ~queue:t.lazy_queue apply_dec t
  end;
  let satb_was_completed = t.satb_active && t.satb_completed in
  (* SATB reclamation happens in the first epoch after the trace ends,
     before increments touch any to-be-reclaimed object. *)
  if satb_was_completed then satb_reclaim t tc;
  (* Root scanning with deferral: increment current root referents,
     remember them, decrement the previous epoch's set later. *)
  let phase_mark = ref (Trace_cost.cpu_ns tc) in
  let phase field =
    let now_cpu = Trace_cost.cpu_ns tc in
    let delta = now_cpu -. !phase_mark in
    phase_mark := now_cpu;
    match field with
    | `Inc -> t.stats.phase_inc_ns <- t.stats.phase_inc_ns +. delta
    | `Dec -> t.stats.phase_dec_ns <- t.stats.phase_dec_ns +. delta
    | `Sweep -> t.stats.phase_sweep_ns <- t.stats.phase_sweep_ns +. delta
    | `Evac -> t.stats.phase_evac_ns <- t.stats.phase_evac_ns +. delta
    | `Satb -> t.stats.phase_satb_ns <- t.stats.phase_satb_ns +. delta
  in
  phase `Dec;  (* the unfinished-lazy drain above *)
  let root_ids = t.root_ids and inc_queue = t.inc_queue in
  Gc_kernels.snapshot_roots tc t.roots ~into:root_ids;
  Vec.append inc_queue root_ids;
  if satb_tracing t then Vec.iter (gray_push t) root_ids;
  (* Modified fields: the final referent of each logged field receives
     an increment; the field resumes logging. One serial pass in log
     order: dead sources drop out at the registry lookup. *)
  for k = 0 to (Vec.length t.modbuf / 2) - 1 do
    let field = Vec.get t.modbuf ((2 * k) + 1) in
    let obj = find_live t (Vec.get t.modbuf (2 * k)) in
    if obj.Obj_model.id <> null then begin
      Obj_model.set_field_logged obj field false;
      let r = Obj_model.field obj field in
      if r <> null then begin
        let child = find_live t r in
        if child.Obj_model.id <> null then
          note_remset t ~src:obj ~field ~referent:child;
        Vec.push inc_queue r
      end
    end
  done;
  Vec.clear t.modbuf;
  (* Object-granularity entries: diff the before-image against the
     current fields — decrements for the snapshot, increments for the
     final referents. One serial pass in log order, like the modbuf. *)
  Vec.iter
    (fun id ->
      let obj = find_live t id in
      match Hashtbl.find_opt t.obj_snapshots id with
      | Some snapshot when obj.Obj_model.id <> null ->
        Obj_model.set_all_logged obj false;
        Array.iteri
          (fun i old ->
            let current = Obj_model.field obj i in
            if old <> null then Vec.push t.decbuf old;
            if current <> null then begin
              let child = find_live t current in
              if child.Obj_model.id <> null then
                note_remset t ~src:obj ~field:i ~referent:child;
              Vec.push inc_queue current
            end)
          snapshot
      | Some _ | None -> ())
    t.objbuf;
  Vec.clear t.objbuf;
  Hashtbl.reset t.obj_snapshots;
  apply_incs t tc inc_queue;
  phase `Inc;
  (* Evacuate the evacuation set (or its next regions) once its
     bootstrap trace has ended. *)
  if satb_was_completed then begin
    Mark_bitset.clear t.heap.marks;
    t.satb_active <- false;
    t.satb_completed <- false
  end;
  if (not (satb_tracing t)) && t.evac_targets <> [] then
    mature_evacuate t tc root_ids ~chosen:(next_evac_chunk t);
  phase `Evac;
  (* Decrements: previous roots and all overwritten referents. *)
  let dec_pending = t.dec_pending in
  Vec.clear dec_pending;
  Vec.append dec_pending t.prev_roots;
  Vec.append dec_pending t.decbuf;
  Vec.clear t.prev_roots;
  Vec.clear t.decbuf;
  Vec.append t.prev_roots root_ids;
  if t.cfg.lazy_decrements then Vec.append t.lazy_queue dec_pending
  else begin
    Gc_kernels.drain_decrements tc ~queue:dec_pending apply_dec t;
    (* Sweep decrement-touched blocks in the pause too (-LD). *)
    drain_lazy_sweep t (fun b ->
        Trace_cost.add_parallel tc ~cost_ns:c.sweep_block_ns;
        Gc_kernels.sweep_stale_block t.heap b)
  end;
  phase `Dec;
  (* Sweep the blocks allocated into this epoch. *)
  let clean_blocks = young_sweep t tc in
  phase `Sweep;
  (* Start a requested SATB now that block states are settled; a
     previous cycle's pending evacuation must finish first (its
     remembered sets would be invalidated by a reuse-counter reset). *)
  if t.satb_requested && (not t.satb_active) && t.evac_targets = [] then begin
    t.satb_requested <- false;
    begin_satb t root_ids
  end;
  if t.satb_active && not t.cfg.concurrent_satb then drain_satb_in_pause t tc;
  phase `Satb;
  (* Predictors and the SATB triggers (§3.2.2). *)
  if t.alloc_bytes_epoch > 0 then
    Predictor.observe t.survival_rate
      (Float.of_int t.promoted_bytes_epoch /. Float.of_int t.alloc_bytes_epoch);
  let wastage =
    (Float.of_int (live_blocks t) -. Predictor.value t.live_blocks_pred)
    /. Float.of_int (Heap_config.blocks t.heap.cfg)
  in
  t.pauses_since_satb <- t.pauses_since_satb + 1;
  if (not t.satb_active)
     && (clean_blocks < t.cfg.clean_blocks_trigger
        || wastage >= t.cfg.wastage_threshold
        || t.pauses_since_satb >= t.cfg.satb_backstop_pauses)
  then t.satb_requested <- true;
  t.heap.epoch <- t.heap.epoch + 1;
  if satb_was_completed then "rc+evac" else "rc"

(* The RC pause (§3.2.1, Figure 2). At the epoch boundary an attached
   controller moves the tunable knobs for the next epoch. The feedback
   carries only simulated metrics, so a deterministic controller keeps
   the run bit-identical across --domains. *)
let rc_pause t =
  Gc_kernels.stw t.sim (rc_epoch t);
  (match t.tune with
  | None -> ()
  | Some f ->
    let pause_wall_ns, pause_cpu_ns = Sim.last_pause_cost t.sim in
    t.cfg <-
      f { now_ns = Sim.now t.sim; pause_wall_ns; pause_cpu_ns } t.cfg);
  t.alloc_bytes_epoch <- 0;
  t.promoted_bytes_epoch <- 0

(* --- Concurrent work (Figure 2's concurrent LXR thread) ---------------- *)

let conc_active t () =
  if Vec.is_empty t.lazy_queue
     && Vec.is_empty t.lazy_sweep
     && not (t.cfg.concurrent_satb && satb_tracing t)
  then 0
  else 1

(* Lazy decrements first, then the sweeps they queued, then the SATB
   trace. Sweeping and scanning queue no decrement, so the trace starts
   only with both queues empty or the budget spent. *)
let conc_run t ~budget_ns =
  let c = Sim.cost t.sim in
  let consumed = ref 0.0 in
  while
    ((not (Vec.is_empty t.lazy_queue)) || not (Vec.is_empty t.lazy_sweep))
    && !consumed < budget_ns
  do
    if not (Vec.is_empty t.lazy_queue) then begin
      (* Reference counts are local: decrements need no synchronization
         with the mutator, so they escape the concurrency penalty that
         burdens concurrent tracing (§2.1, §3.5). *)
      apply_dec t t.lazy_queue (Vec.pop t.lazy_queue);
      consumed := !consumed +. c.dec_ns
    end
    else begin
      let b = Vec.pop t.lazy_sweep in
      Bytes.set t.lazy_sweep_member b '\000';
      Gc_kernels.sweep_stale_block t.heap b;
      consumed := !consumed +. c.sweep_block_ns
    end
  done;
  if t.cfg.concurrent_satb && satb_tracing t then begin
    let consumed =
      Gc_kernels.conc_mark c ~gray:t.satb_gray ~budget_ns ~consumed:!consumed
        satb_scan t
    in
    if Vec.is_empty t.satb_gray && consumed < budget_ns then complete_satb t;
    consumed
  end
  else !consumed

(* --- Triggers (§3.2.1) -------------------------------------------------- *)

let should_pause t =
  (* Progress guard: an epoch must allocate at least a block's worth
     before another pause can fire, or tight heaps thrash. *)
  t.alloc_bytes_epoch >= t.heap.Heap.cfg.block_bytes
  &&
  let predicted_survival =
    Predictor.value t.survival_rate *. Float.of_int t.alloc_bytes_epoch
  in
  let low_space =
    Free_lists.free_count t.heap.free + Free_lists.recyclable_count t.heap.free
    < t.cfg.free_low_watermark_blocks
  in
  low_space
  || t.alloc_bytes_epoch >= t.cfg.epoch_alloc_cap_bytes
  || predicted_survival >= Float.of_int t.cfg.survival_threshold_bytes
  || (match t.cfg.increment_threshold with
     | Some n -> Vec.length t.modbuf / 2 >= n
     | None -> false)

let poll t () = if should_pause t then rc_pause t

(* The allocation-failure degradation ladder. [Young]: one RC pause.
   [Full]: force the SATB cycle through to reclamation and evacuation.
   [Emergency]: if reference counting, the forced trace, and mature
   evacuation still yielded no whole blocks (large-object allocation
   needs them), slide-compact the fragmented remainder in a pause. Each
   rung tops the to-space reserve back up before the allocation retry. *)
let collect_for_alloc t pressure =
  (match pressure with
  | Collector.Young -> rc_pause t
  | Collector.Full ->
    if not t.satb_active then t.satb_requested <- true;
    rc_pause t;
    if t.satb_active && not t.satb_completed then
      Gc_kernels.stw t.sim (fun tc ->
          drain_satb_in_pause t tc;
          "forced-trace");
    rc_pause t
  | Collector.Emergency ->
    t.stats.mature_evacuated <-
      t.stats.mature_evacuated
      + Gc_kernels.emergency_compact t.sim t.heap ~gc_alloc:t.gc_alloc);
  Heap.ensure_reserve t.heap

(* --- Barrier (§3.4, Figure 3) ------------------------------------------ *)

(* Field-logging barrier (Figure 3): remember the overwritten referent and
   the field's address the first time the field is written each epoch. *)
let on_write_field t (src : Obj_model.t) field =
  if not (Obj_model.field_logged src field) then begin
    let c = Sim.cost t.sim in
    Sim.charge_mutator t.sim c.wb_slow_ns;
    Sim.note_barrier t.sim c.wb_slow_ns;
    t.stats.wb_slow <- t.stats.wb_slow + 1;
    Obj_model.set_field_logged src field true;
    let old = Obj_model.field src field in
    if old <> null then begin
      Vec.push t.decbuf old;
      (* The same logged value seeds the SATB snapshot (§2.3). *)
      if satb_tracing t then begin
        let o = find_live t old in
        if o.Obj_model.id <> null && Heap.rc_of t.heap o > 0 then
          gray_push t old
      end
    end;
    Vec.push t.modbuf src.id;
    Vec.push t.modbuf field
  end

(* Object-remembering barrier (§3.4): on the first write to any field,
   snapshot the whole object's before-image; the pause coalesces
   decrements and increments per field from the snapshot. The fast path
   tests one bit regardless of which field is written. *)
let on_write_object t (src : Obj_model.t) =
  if not (Obj_model.field_logged src 0) then begin
    let c = Sim.cost t.sim in
    let ns = c.wb_slow_ns +. (0.3 *. Float.of_int (Obj_model.nfields src)) in
    Sim.charge_mutator t.sim ns;
    Sim.note_barrier t.sim ns;
    t.stats.wb_slow <- t.stats.wb_slow + 1;
    Obj_model.set_all_logged src true;
    Hashtbl.replace t.obj_snapshots src.id (Obj_model.fields_copy src);
    Vec.push t.objbuf src.id;
    if satb_tracing t then
      (* Which field is about to be overwritten is unknown at object
         granularity; conservatively snapshot every referent. *)
      Obj_model.iter_fields
        (fun r ->
          if r <> null then begin
            let o = find_live t r in
            if o.Obj_model.id <> null && Heap.rc_of t.heap o > 0 then
              gray_push t r
          end)
        src
  end

let on_write t (src : Obj_model.t) field _new_ref =
  t.stats.wb_fast <- t.stats.wb_fast + 1;
  if t.cfg.field_logging_barrier then on_write_field t src field
  else on_write_object t src

let on_alloc t (obj : Obj_model.t) =
  t.alloc_bytes_epoch <- t.alloc_bytes_epoch + obj.size;
  if Heap.is_los t.heap obj then Vec.push t.los_young obj.id

let on_finish t () =
  (* Drain outstanding concurrent work so final statistics are complete. *)
  while not (Vec.is_empty t.lazy_queue) do
    apply_dec t t.lazy_queue (Vec.pop t.lazy_queue)
  done;
  drain_lazy_sweep t (Gc_kernels.sweep_stale_block t.heap)

let stats_alist t () =
  ("promoted_pending", Float.of_int t.promoted_bytes_epoch)
  :: Lxr_stats.to_alist t.stats

(* --- Verifier introspection -------------------------------------------- *)

(* Every id with a decrement still queued: its count may legitimately
   exceed the in-heap evidence until the next pause applies it. *)
let pending_ref_ids t () =
  let ids = ref [] in
  let push id = if id <> null then ids := id :: !ids in
  Vec.iter push t.decbuf;
  Vec.iter push t.prev_roots;
  Vec.iter push t.lazy_queue;
  Hashtbl.iter
    (fun _ snapshot -> Array.iter push snapshot)
    t.obj_snapshots;
  !ids

let remset_entries t () =
  let acc = ref [] in
  Remset.iter t.remset (fun { Remset.src; field; tag = _ } ->
      acc := (src, field) :: !acc);
  !acc

let introspect t =
  { Collector.rc_discipline = Collector.Exact_rc;
    counts_exact = (fun () -> t.stats.satb_traces_completed = 0);
    pending_ref_ids = pending_ref_ids t;
    remset_entries = remset_entries t;
    trace_active = (fun () -> satb_tracing t);
    expect_clear_marks = (fun () -> not t.satb_active) }

let create ?tune ~name ~config sim heap ~roots =
  let cfg =
    config
      (Lxr_config.scaled_default ~heap_bytes:heap.Heap.cfg.heap_bytes
         ~block_bytes:heap.Heap.cfg.block_bytes)
  in
  let t =
    { sim;
      heap;
      roots;
      cfg;
      tune;
      stats = Lxr_stats.create ();
      decbuf = Vec.create ~capacity:1024 ();
      modbuf = Vec.create ~capacity:1024 ();
      objbuf = Vec.create ~capacity:256 ();
      obj_snapshots = Hashtbl.create 256;
      prev_roots = Vec.create ~capacity:64 ();
      root_ids = Vec.create ~capacity:64 ();
      inc_queue = Vec.create ~capacity:256 ();
      dec_pending = Vec.create ~capacity:256 ();
      evac_queue = Vec.create ~capacity:256 ();
      lazy_queue = Vec.create ~capacity:1024 ();
      lazy_sweep = Vec.create ~capacity:64 ();
      lazy_sweep_member = Bytes.make (Heap_config.blocks heap.Heap.cfg) '\000';
      satb_active = false;
      satb_completed = false;
      satb_requested = false;
      satb_start_epoch = 0;
      satb_gray = Vec.create ~capacity:1024 ();
      remset = Remset.create ();
      evac_targets = [];
      survival_rate = Predictor.create ~initial:0.2;
      live_blocks_pred = Predictor.create ~initial:0.0;
      alloc_bytes_epoch = 0;
      promoted_bytes_epoch = 0;
      pauses_since_satb = 0;
      los_young = Vec.create ~capacity:16 ();
      gc_alloc = Heap.make_allocator heap }
  in
  Heap.ensure_reserve heap;
  let c = Sim.cost sim in
  { Collector.name;
    on_alloc = on_alloc t;
    on_write = on_write t;
    write_extra_ns = c.wb_fast_ns;
    read_extra_ns = 0.0;
    poll = (fun () -> poll t ());
    collect_for_alloc = collect_for_alloc t;
    conc_active = conc_active t;
    conc_run = (fun ~budget_ns -> conc_run t ~budget_ns);
    conc_backlog = (fun () -> Vec.length t.lazy_queue + Vec.length t.lazy_sweep);
    on_finish = on_finish t;
    stats = stats_alist t;
    introspect = introspect t }

let factory_with ~name ~config () sim heap ~roots = create ~name ~config sim heap ~roots
let factory = factory_with ~name:"LXR" ~config:Fun.id ()

(* A factory whose collector re-tunes its configuration at every epoch
   boundary. [tune sim] builds the per-instance tuning function — one
   controller per collector instance, so fleet replicas don't share
   state. *)
let factory_tuned ?(config = Fun.id) ~name
    ~tune:(mk : Sim.t -> epoch_feedback -> Lxr_config.t -> Lxr_config.t) () :
    Collector.factory =
 fun sim heap ~roots -> create ~tune:(mk sim) ~name ~config sim heap ~roots

let factory_no_satb_concurrency =
  factory_with ~name:"LXR -SATB" ~config:Lxr_config.no_concurrent_satb ()

let factory_no_lazy_decrements =
  factory_with ~name:"LXR -LD" ~config:Lxr_config.no_lazy_decrements ()

let factory_stw = factory_with ~name:"LXR STW" ~config:Lxr_config.stw ()

let factory_object_barrier =
  factory_with ~name:"LXR objbar" ~config:Lxr_config.object_barrier ()

let factory_regional_evacuation =
  factory_with ~name:"LXR regions" ~config:Lxr_config.regional_evacuation ()
