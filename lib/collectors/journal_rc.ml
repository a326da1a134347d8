open Repro_util
open Repro_heap
open Repro_engine
module Par = Repro_par.Par

let null = Obj_model.null

(* A Journal-RC collector in the mo-gc mold: the mutator never pauses for
   bookkeeping beyond publishing journal chunks. Every reference store is
   appended to a per-mutator journal as a (src, field, old, new) quad; a
   concurrent drain folds published chunks into the shared RC table as an
   absolute reference-count map (increments applied immediately,
   decrements deferred to the epoch boundary), and a short snapshot pause
   per epoch catches up the journal, re-snapshots the roots and sweeps
   the young allocation region. Cycles fall to a periodic in-pause
   backstop trace of the mature space.

   Soundness of the deferral discipline: a decrement journaled in epoch
   [k] becomes applicable only after pause [k] has (1) applied every
   journaled increment and (2) incremented the current root referents.
   Any object reachable at that point holds at least one direct
   reference whose increment has been applied, so its count is >= 1 and
   an applicable decrement can never free a reachable object. Records
   carry explicit referent ids (not field re-reads), so applying every
   record exactly once telescopes to the true absolute counts even when
   a field is written many times per epoch or its source dies first;
   frees cascade decrements for the dead object's current fields, which
   keeps [counts_exact] true forever — stronger than LXR, whose SATB
   reclamation abandons exactness at the first completed trace. *)

let chunk_records = 256  (* records per journal chunk before publication *)
let arena_count = 8  (* fixed block-index partitions of the heap *)
let trace_backstop_pauses = 8  (* force a mature trace every N pauses *)
let journal_trigger_records = 32_768  (* pause when the backlog exceeds this *)

type stats = {
  mutable pauses : int;
  mutable trace_pauses : int;
  mutable wb_fast : int;
  mutable wb_slow : int;  (** chunk publications (the barrier slow path) *)
  mutable journal_records : int;
  mutable journal_chunks : int;
  mutable conc_records : int;  (** records folded by the concurrent drain *)
  mutable pause_records : int;  (** records caught up inside pauses *)
  mutable increments : int;
  mutable decrements : int;
  mutable young_reclaimed : int;
  mutable rc_reclaimed : int;  (** bytes freed by decrement cascades *)
  mutable trace_reclaimed : int;
  mutable unfinished_drain_pauses : int;
  mutable remset_entries : int;
  mutable arena_sweeps : int;
  mutable backlog_peak : int;
}

let stats_create () =
  { pauses = 0;
    trace_pauses = 0;
    wb_fast = 0;
    wb_slow = 0;
    journal_records = 0;
    journal_chunks = 0;
    conc_records = 0;
    pause_records = 0;
    increments = 0;
    decrements = 0;
    young_reclaimed = 0;
    rc_reclaimed = 0;
    trace_reclaimed = 0;
    unfinished_drain_pauses = 0;
    remset_entries = 0;
    arena_sweeps = 0;
    backlog_peak = 0 }

let stats_alist s =
  [ ("pauses", Float.of_int s.pauses);
    ("trace_pauses", Float.of_int s.trace_pauses);
    ("wb_fast", Float.of_int s.wb_fast);
    ("wb_slow", Float.of_int s.wb_slow);
    ("journal_records", Float.of_int s.journal_records);
    ("journal_chunks", Float.of_int s.journal_chunks);
    ("conc_records", Float.of_int s.conc_records);
    ("pause_records", Float.of_int s.pause_records);
    ("increments", Float.of_int s.increments);
    ("decrements", Float.of_int s.decrements);
    ("young_reclaimed", Float.of_int s.young_reclaimed);
    ("rc_reclaimed", Float.of_int s.rc_reclaimed);
    ("trace_reclaimed", Float.of_int s.trace_reclaimed);
    ("unfinished_drain_pauses", Float.of_int s.unfinished_drain_pauses);
    ("remset_entries", Float.of_int s.remset_entries);
    ("arena_sweeps", Float.of_int s.arena_sweeps);
    ("backlog_peak", Float.of_int s.backlog_peak) ]

(* Per-arena drain state: a sequential-store buffer of blocks whose
   classification went stale under decrement frees, a phase tag, and an
   epoch-scoped remembered set of cross-arena references discovered by
   the journal fold (diagnostic: the collector is non-moving, so the
   remsets guide nothing, but they are verifier-checked like LXR's). *)
type arena_phase = Idle | Dirty | Sweeping

type arena = {
  mutable phase : arena_phase;
  ssb : Vec.t;  (* block ids awaiting a guarded re-sweep *)
  ssb_set : Bytes.t;  (* block-indexed membership byte for [ssb] *)
  remset : Vec.t;  (* (src id, field) pairs, packed flat *)
}

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  (* Pause triggers derived from the heap geometry at creation. *)
  epoch_alloc_cap_bytes : int;
  free_low_watermark_blocks : int;
  stats : stats;
  (* The mutator journal: an open chunk of (src, field, old, new) quads
     plus the flat FIFO of published records awaiting the concurrent
     fold. Publication appends the open chunk onto [published_v];
     [drain_pos] is the element index of the first unfolded quad, so the
     drain consumes chunk-sized spans in publication order without ever
     allocating per-chunk vectors. *)
  open_chunk : Vec.t;
  published_v : Vec.t;
  mutable drain_pos : int;
  mutable published_records : int;
  (* Decrement queues: [dec_deferred] holds this epoch's journaled
     decrements (unsafe until the next root snapshot); [dec_applicable]
     holds balanced decrements any drain may apply. *)
  dec_deferred : Vec.t;
  dec_applicable : Vec.t;
  prev_roots : Vec.t;  (* root referents incremented at the last pause *)
  arenas : arena array;
  arena_blocks : int;
  los_young : Vec.t;
  mutable alloc_bytes_epoch : int;
  mutable pauses_since_trace : int;
  gc_alloc : Bump_allocator.t;
  mutable in_pause : bool;
}

let arena_of t block = min (arena_count - 1) (block / t.arena_blocks)

let open_records t = Vec.length t.open_chunk / 4

let journal_backlog t = open_records t + t.published_records

let conc_backlog t =
  let ssb = Array.fold_left (fun a ar -> a + Vec.length ar.ssb) 0 t.arenas in
  journal_backlog t + Vec.length t.dec_applicable + ssb

let note_backlog t =
  let b = conc_backlog t + Vec.length t.dec_deferred in
  if b > t.stats.backlog_peak then t.stats.backlog_peak <- b

(* --- Decrements -------------------------------------------------------- *)

let note_dec_sweep t (obj : Obj_model.t) =
  if not (Heap.is_los t.heap obj) then begin
    let b = Addr.block_of t.heap.cfg (Obj_model.addr obj) in
    let ar = t.arenas.(arena_of t b) in
    if Bytes.unsafe_get ar.ssb_set b = '\000' then begin
      Bytes.unsafe_set ar.ssb_set b '\001';
      Vec.push ar.ssb b;
      if ar.phase = Idle then ar.phase <- Dirty
    end
  end

(* Apply one decrement; cascades for a dying object's current fields are
   pushed onto [queue]. Decrements whose target is already freed (the
   referent died first — young sweep, trace, or an earlier cascade) are
   skipped: their balancing increments died with the object's header. *)
let apply_dec t queue id =
  let faults = Sim.faults t.sim in
  if Fault.active faults && faults.skip_decrement () then ()
  else begin
    let obj = Obj_model.Registry.find_live t.heap.registry id in
    if obj.Obj_model.id <> null then begin
      t.stats.decrements <- t.stats.decrements + 1;
      match Heap.rc_dec t.heap obj with
      | `Became 0 ->
        for j = 0 to Obj_model.nfields obj - 1 do
          let r = Obj_model.field obj j in
          if r <> null then Vec.push queue r
        done;
        note_dec_sweep t obj;
        t.stats.rc_reclaimed <- t.stats.rc_reclaimed + obj.size;
        Heap.free_object t.heap obj
      | `Became _ | `Stuck | `Underflow -> ()
    end
  end

(* --- Journal fold ------------------------------------------------------ *)

let note_remset t ~(src : Obj_model.t) ~field ~(referent : Obj_model.t) =
  let sb = Addr.block_of t.heap.cfg (Obj_model.addr src) in
  let rb = Addr.block_of t.heap.cfg (Obj_model.addr referent) in
  let sa = arena_of t sb and ra = arena_of t rb in
  if sa <> ra then begin
    let faults = Sim.faults t.sim in
    let field =
      (* Injected corruption: a nonsense field index the drain must
         tolerate and the verifier must flag. *)
      if Fault.active faults && faults.corrupt_remset () then field + 10_000
      else field
    in
    let ar = t.arenas.(ra) in
    Vec.push ar.remset src.id;
    Vec.push ar.remset field;
    t.stats.remset_entries <- t.stats.remset_entries + 1
  end

(* Fold one journal record into the absolute-RC map: the increment for
   the written referent applies immediately; the decrement for the
   overwritten referent is deferred to the next root snapshot. Records
   apply even when their source object has since died — the explicit
   referent ids make record application order-free (each field's history
   telescopes), and the source's free cascaded decrements for its
   *current* fields only. *)
let fold_record t ~src ~field ~old_r ~new_r =
  (if new_r <> null then begin
     let referent = Obj_model.Registry.find_live t.heap.registry new_r in
     if referent.Obj_model.id <> null then begin
       t.stats.increments <- t.stats.increments + 1;
       (match Heap.rc_inc t.heap referent with
       | `Became _ | `Stuck -> ());
       let src_obj = Obj_model.Registry.find_live t.heap.registry src in
       if src_obj.Obj_model.id <> null then
         note_remset t ~src:src_obj ~field ~referent
     end
   end);
  if old_r <> null then Vec.push t.dec_deferred old_r;
  let src_obj = Obj_model.Registry.find_live t.heap.registry src in
  if src_obj.Obj_model.id <> null then begin
    let b = Addr.block_of t.heap.cfg (Obj_model.addr src_obj) in
    let ar = t.arenas.(arena_of t b) in
    if ar.phase = Idle then ar.phase <- Dirty
  end

(* --- The write barrier ------------------------------------------------- *)

(* Runs before the store, so the overwritten referent is still in the
   field. The fast path appends one quad to the open chunk; the slow
   path (chunk full) publishes it to the drain FIFO. *)
let on_write t (src : Obj_model.t) field new_ref =
  t.stats.wb_fast <- t.stats.wb_fast + 1;
  let old_r = Obj_model.field src field in
  if old_r <> new_ref then begin
    Vec.push t.open_chunk src.id;
    Vec.push t.open_chunk field;
    Vec.push t.open_chunk old_r;
    Vec.push t.open_chunk new_ref;
    t.stats.journal_records <- t.stats.journal_records + 1;
    if Vec.length t.open_chunk >= 4 * chunk_records then begin
      let c = Sim.cost t.sim in
      Sim.charge_mutator t.sim c.wb_slow_ns;
      Sim.note_barrier t.sim c.wb_slow_ns;
      t.stats.wb_slow <- t.stats.wb_slow + 1;
      t.stats.journal_chunks <- t.stats.journal_chunks + 1;
      t.published_records <- t.published_records + (Vec.length t.open_chunk / 4);
      Vec.append t.published_v t.open_chunk;
      Vec.clear t.open_chunk
    end
  end

(* --- Young sweep ------------------------------------------------------- *)

(* Sweep the blocks allocated into this epoch, freeing count-zero
   residents. Unlike LXR — whose young objects carry no increments until
   promotion — every reference out of a dead young object was journaled
   and applied, so the sweep must cascade decrements for the dead
   objects' current fields (queued just before each free, applied
   serially after the sweep). *)
let young_sweep t tc =
  let c = Sim.cost t.sim in
  let cascade = Par.take_scratch () in
  let push_cascade r = if r <> null then Vec.push cascade r in
  Gc_kernels.sweep_young t.heap tc ~cost:c ~threads:c.gc_threads
    ~los:t.los_young ~on_dead:(fun obj ->
      Obj_model.iter_fields push_cascade obj;
      t.stats.young_reclaimed <- t.stats.young_reclaimed + obj.size);
  while not (Vec.is_empty cascade) do
    let frontier = Vec.length cascade in
    Trace_cost.add tc ~threads:c.gc_threads ~frontier ~cost_ns:c.dec_ns;
    apply_dec t cascade (Vec.pop cascade)
  done;
  Par.recycle_scratch cascade

(* --- Mature trace (the cycle backstop) --------------------------------- *)

(* An in-pause mark/sweep of the whole heap. Before the sweep frees the
   unmarked, a registry pre-scan queues decrements for every unmarked
   object's fields, in ascending slot order, so surviving referents'
   counts stay exact — decrements whose targets the sweep also frees
   skip at application time. *)
let mature_trace t tc root_ids =
  let c = Sim.cost t.sim in
  t.stats.trace_pauses <- t.stats.trace_pauses + 1;
  Gc_kernels.mark_from t.heap tc ~cost:c ~threads:c.gc_threads
    ~seeds:(fun f -> Vec.iter f root_ids);
  let reg = t.heap.registry in
  let push r = if r <> null then Vec.push t.dec_applicable r in
  for slot = 0 to Obj_model.Registry.slot_count reg - 1 do
    let obj = Obj_model.Registry.handle_at_live reg slot in
    if obj.Obj_model.id <> null && not (Mark_bitset.marked t.heap.marks obj.id)
    then Obj_model.iter_fields push obj
  done;
  let freed = Gc_kernels.sweep_unmarked t.heap tc ~cost:c ~threads:c.gc_threads in
  t.stats.trace_reclaimed <- t.stats.trace_reclaimed + freed;
  Mark_bitset.clear t.heap.marks;
  Heap.clear_touched t.heap;
  Vec.clear t.los_young;
  (* The sweep's free-list rebuild dissolves empty reserve blocks back
     into circulation; restock before the mutator can claim them. It
     also reclassified every block, so the pending stale-block buffers
     are superseded — and would otherwise carry block ids the restocked
     reserve may now own. *)
  Heap.ensure_reserve t.heap;
  Array.iter
    (fun ar ->
      Vec.clear ar.ssb;
      Bytes.fill ar.ssb_set 0 (Bytes.length ar.ssb_set) '\000';
      if ar.phase = Sweeping || ar.phase = Dirty then ar.phase <- Idle)
    t.arenas;
  t.pauses_since_trace <- 0

(* --- The snapshot pause ------------------------------------------------ *)

(* Flatten = append the open chunk onto the published FIFO and hand back
   the (vector, first-unfolded-quad) pair — no copy of already-published
   records. The caller resets the vector once every record is folded. *)
let flatten_journal t =
  t.published_records <- 0;
  Vec.append t.published_v t.open_chunk;
  Vec.clear t.open_chunk;
  (t.published_v, t.drain_pos)

(* Journal catchup: one serial fold over the flat record array in
   journal order; increments, deferral and remset notes happen as each
   record is folded. *)
let catchup_journal t tc (records, start) =
  let c = Sim.cost t.sim in
  let nrecords = (Vec.length records - start) / 4 in
  t.stats.pause_records <- t.stats.pause_records + nrecords;
  for k = 0 to nrecords - 1 do
    let q = start + (4 * k) in
    let src = Vec.get records q
    and field = Vec.get records (q + 1)
    and old_r = Vec.get records (q + 2)
    and new_r = Vec.get records (q + 3) in
    Trace_cost.add tc ~threads:c.gc_threads ~frontier:(nrecords - k)
      ~cost_ns:c.inc_ns;
    fold_record t ~src ~field ~old_r ~new_r
  done;
  Vec.clear t.published_v;
  t.drain_pos <- 0

let should_trace t =
  t.pauses_since_trace >= trace_backstop_pauses
  || Free_lists.free_count t.heap.free + Free_lists.recyclable_count t.heap.free
     < t.free_low_watermark_blocks

let journal_pause t ~force_trace =
  if not t.in_pause then begin
    t.in_pause <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    t.stats.pauses <- t.stats.pauses + 1;
    Heap.retire_all_allocators t.heap;
    (* Applicable decrements the concurrent drain did not finish. *)
    if not (Vec.is_empty t.dec_applicable) then begin
      t.stats.unfinished_drain_pauses <- t.stats.unfinished_drain_pauses + 1;
      while not (Vec.is_empty t.dec_applicable) do
        let frontier = Vec.length t.dec_applicable in
        Trace_cost.add tc ~threads:c.gc_threads ~frontier ~cost_ns:c.dec_ns;
        apply_dec t t.dec_applicable (Vec.pop t.dec_applicable)
      done
    end;
    (* Epoch-scoped remsets restart with the new epoch's fold. *)
    Array.iter (fun ar -> Vec.clear ar.remset) t.arenas;
    (* Journal catchup: every record folded before anything is freed. *)
    let records = flatten_journal t in
    catchup_journal t tc records;
    (* Root snapshot: increment current root referents before this
       epoch's deferred decrements become applicable — the step the
       deferral discipline's soundness rests on. *)
    let root_ids = Par.take_scratch () in
    Array.iter (fun r -> if r <> null then Vec.push root_ids r) t.roots;
    Trace_cost.add_parallel tc ~threads:c.gc_threads
      ~cost_ns:(Float.of_int (Array.length t.roots) *. c.root_scan_ns);
    Vec.iter
      (fun id ->
        let obj = Obj_model.Registry.find_live t.heap.registry id in
        if obj.Obj_model.id <> null then begin
          t.stats.increments <- t.stats.increments + 1;
          Trace_cost.add tc ~threads:c.gc_threads ~frontier:1 ~cost_ns:c.inc_ns;
          match Heap.rc_inc t.heap obj with `Became _ | `Stuck -> ()
        end)
      root_ids;
    (* The previous snapshot's root counts come off; this epoch's
       journaled decrements become applicable. Both drain lazily. *)
    Vec.append t.dec_applicable t.prev_roots;
    Vec.clear t.prev_roots;
    Vec.append t.prev_roots root_ids;
    Vec.append t.dec_applicable t.dec_deferred;
    Vec.clear t.dec_deferred;
    (* Reclaim: the young region every pause; the whole heap (cycles
       included) on the trace backstop. *)
    let traced = force_trace || should_trace t in
    if traced then mature_trace t tc root_ids else young_sweep t tc;
    Par.recycle_scratch root_ids;
    t.alloc_bytes_epoch <- 0;
    t.pauses_since_trace <- t.pauses_since_trace + 1;
    t.heap.epoch <- t.heap.epoch + 1;
    note_backlog t;
    Gc_kernels.pause_of t.sim tc
      ~label:(if traced then "journal+trace" else "journal");
    t.in_pause <- false
  end

(* --- Concurrent drain --------------------------------------------------- *)

let conc_active t () = if conc_backlog t - open_records t > 0 then 1 else 0

(* Priority order: applicable decrements (local RC work — no concurrency
   penalty, like LXR's lazy decrements), then published journal chunks
   (penalized: the fold contends with the mutator for the journal's
   cache lines), then stale-block re-sweeps in arena-index order. *)
let conc_run t ~budget_ns =
  let c = Sim.cost t.sim in
  let penalty = 1.0 /. c.conc_efficiency in
  let consumed = ref 0.0 in
  let continue_ = ref true in
  while !continue_ && !consumed < budget_ns do
    if not (Vec.is_empty t.dec_applicable) then begin
      apply_dec t t.dec_applicable (Vec.pop t.dec_applicable);
      consumed := !consumed +. c.dec_ns
    end
    else if t.published_records > 0 then begin
      (* One published chunk's worth of records, in publication order. *)
      let n = min chunk_records t.published_records in
      t.published_records <- t.published_records - n;
      t.stats.conc_records <- t.stats.conc_records + n;
      for k = 0 to n - 1 do
        let q = t.drain_pos + (4 * k) in
        fold_record t ~src:(Vec.get t.published_v q)
          ~field:(Vec.get t.published_v (q + 1))
          ~old_r:(Vec.get t.published_v (q + 2))
          ~new_r:(Vec.get t.published_v (q + 3))
      done;
      t.drain_pos <- t.drain_pos + (4 * n);
      if t.published_records = 0 then begin
        Vec.clear t.published_v;
        t.drain_pos <- 0
      end;
      consumed := !consumed +. (Float.of_int n *. c.inc_ns *. penalty)
    end
    else begin
      let rec sweep_next a =
        if a >= arena_count then continue_ := false
        else begin
          let ar = t.arenas.(a) in
          if Vec.is_empty ar.ssb then begin
            if ar.phase = Sweeping then ar.phase <- Idle;
            sweep_next (a + 1)
          end
          else begin
            ar.phase <- Sweeping;
            let b = Vec.pop ar.ssb in
            Bytes.unsafe_set ar.ssb_set b '\000';
            Gc_kernels.sweep_stale_block t.heap b;
            t.stats.arena_sweeps <- t.stats.arena_sweeps + 1;
            if Vec.is_empty ar.ssb then ar.phase <- Idle;
            consumed := !consumed +. c.sweep_block_ns
          end
        end
      in
      sweep_next 0
    end
  done;
  !consumed

(* --- Triggers ----------------------------------------------------------- *)

let should_pause t =
  t.alloc_bytes_epoch >= t.heap.Heap.cfg.block_bytes
  && (t.alloc_bytes_epoch >= t.epoch_alloc_cap_bytes
     || Free_lists.free_count t.heap.free
        + Free_lists.recyclable_count t.heap.free
        < t.free_low_watermark_blocks
     || journal_backlog t + Vec.length t.dec_deferred
        >= journal_trigger_records)

let poll t () =
  note_backlog t;
  if should_pause t then journal_pause t ~force_trace:false

(* Degradation ladder. [Young]: one snapshot pause. [Full]: a snapshot
   pause with the mature trace forced, so cyclic garbage goes too.
   [Emergency]: slide-compact the swept remainder in a pause. *)
let collect_for_alloc t pressure =
  (match pressure with
  | Collector.Young -> journal_pause t ~force_trace:false
  | Collector.Full -> journal_pause t ~force_trace:true
  | Collector.Emergency ->
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    Heap.retire_all_allocators t.heap;
    Heap.release_reserve t.heap;
    ignore
      (Compaction.compact t.heap tc ~cost:c ~threads:c.gc_threads
         ~gc_alloc:t.gc_alloc);
    Gc_kernels.pause_of ~label:"compact" t.sim tc);
  Heap.ensure_reserve t.heap

let on_alloc t (obj : Obj_model.t) =
  t.alloc_bytes_epoch <- t.alloc_bytes_epoch + obj.size;
  if Heap.is_los t.heap obj then Vec.push t.los_young obj.id

(* End of run: one final snapshot pause leaves the counts absolute (the
   current roots are the last snapshot), then the concurrent queues are
   drained so final statistics are complete. *)
let on_finish t () =
  journal_pause t ~force_trace:false;
  while not (Vec.is_empty t.dec_applicable) do
    apply_dec t t.dec_applicable (Vec.pop t.dec_applicable)
  done;
  Array.iter
    (fun ar ->
      while not (Vec.is_empty ar.ssb) do
        let b = Vec.pop ar.ssb in
        Bytes.unsafe_set ar.ssb_set b '\000';
        Gc_kernels.sweep_stale_block t.heap b
      done;
      ar.phase <- Idle)
    t.arenas

(* --- Verifier introspection --------------------------------------------- *)

(* Every id with RC work still queued: overwritten referents in
   unapplied journal records, both decrement queues, and the previous
   root snapshot. Their counts legitimately exceed the in-heap evidence
   until the drain applies them. *)
let pending_ref_ids t () =
  let ids = ref [] in
  let push id = if id <> null then ids := id :: !ids in
  let push_chunk chunk =
    for k = 0 to (Vec.length chunk / 4) - 1 do
      push (Vec.get chunk ((4 * k) + 2))
    done
  in
  push_chunk t.open_chunk;
  (* Published-but-unfolded records live in [drain_pos ..) of the flat
     journal. *)
  for k = t.drain_pos / 4 to (Vec.length t.published_v / 4) - 1 do
    push (Vec.get t.published_v ((4 * k) + 2))
  done;
  Vec.iter push t.dec_deferred;
  Vec.iter push t.dec_applicable;
  Vec.iter push t.prev_roots;
  !ids

let remset_entries t () =
  let acc = ref [] in
  Array.iter
    (fun ar ->
      let i = ref 0 in
      while !i < Vec.length ar.remset do
        acc := (Vec.get ar.remset !i, Vec.get ar.remset (!i + 1)) :: !acc;
        i := !i + 2
      done)
    t.arenas;
  !acc

let introspect t =
  { Collector.rc_discipline = Collector.Exact_rc;
    counts_exact = (fun () -> true);
    pending_ref_ids = pending_ref_ids t;
    remset_entries = remset_entries t;
    trace_active = (fun () -> false);
    expect_clear_marks = (fun () -> true) }

let factory sim heap ~roots =
  let cfg = heap.Heap.cfg in
  let blocks = Heap_config.blocks cfg in
  let arena_blocks = max 1 ((blocks + arena_count - 1) / arena_count) in
  let t =
    { sim;
      heap;
      roots;
      epoch_alloc_cap_bytes = max (4 * cfg.block_bytes) (cfg.heap_bytes / 4);
      free_low_watermark_blocks = max 2 (blocks / 24);
      stats = stats_create ();
      open_chunk = Vec.create ~capacity:(4 * chunk_records) ();
      published_v = Vec.create ~capacity:(8 * chunk_records) ();
      drain_pos = 0;
      published_records = 0;
      dec_deferred = Vec.create ~capacity:1024 ();
      dec_applicable = Vec.create ~capacity:1024 ();
      prev_roots = Vec.create ~capacity:64 ();
      arenas =
        Array.init arena_count (fun _ ->
            { phase = Idle;
              ssb = Vec.create ~capacity:16 ();
              ssb_set = Bytes.make blocks '\000';
              remset = Vec.create ~capacity:64 () });
      arena_blocks;
      los_young = Vec.create ~capacity:16 ();
      alloc_bytes_epoch = 0;
      pauses_since_trace = 0;
      gc_alloc = Heap.make_allocator heap;
      in_pause = false }
  in
  Heap.ensure_reserve heap;
  let c = Sim.cost sim in
  { Collector.name = "Journal-RC";
    on_alloc = on_alloc t;
    on_write = on_write t;
    write_extra_ns = c.wb_fast_ns;
    read_extra_ns = 0.0;
    poll = (fun () -> poll t ());
    collect_for_alloc = collect_for_alloc t;
    conc_active = conc_active t;
    conc_run = (fun ~budget_ns -> conc_run t ~budget_ns);
    conc_backlog = (fun () -> conc_backlog t);
    on_finish = on_finish t;
    stats = (fun () -> stats_alist t.stats);
    introspect = introspect t }
