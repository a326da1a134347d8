open Repro_util
open Repro_heap
open Repro_engine
module Par = Repro_par.Par

let null = Obj_model.null

(* Per-block remembered sets are coarsened (abandoned) beyond this size,
   mirroring G1's treatment of "popular" regions. *)
let rs_cap = 8192

type t = {
  sim : Sim.t;
  heap : Heap.t;
  roots : int array;
  gc_alloc : Bump_allocator.t;
  young_marks : Mark_bitset.t;  (* young-trace marks, distinct from cycle marks *)
  young_rs : Vec.t;  (* old->young references, packed (src, field) *)
  block_rs : Vec.t array;  (* cross-block old->old references per block *)
  young_los : (int, unit) Hashtbl.t;  (* large objects allocated since last young GC *)
  gray : Vec.t;  (* concurrent marking stack *)
  mutable marking : bool;
  mutable remark_ready : bool;
  mutable mixed_pending : bool;
  mutable mixed_candidates : int list;
  nursery_bytes : int;
  mutable bytes_since_young_gc : int;
  (* Statistics. *)
  mutable young_gcs : int;
  mutable mixed_gcs : int;
  mutable full_gcs : int;
  mutable marking_cycles : int;
  mutable copied_bytes : int;
  mutable in_collection : bool;
}

let is_young t (obj : Obj_model.t) =
  if Heap.is_los t.heap obj then Hashtbl.mem t.young_los obj.id
  else Blocks.young t.heap.blocks (Addr.block_of t.heap.cfg (Obj_model.addr obj))

let block_of t (obj : Obj_model.t) = Addr.block_of t.heap.cfg (Obj_model.addr obj)

let rs_push t b src field =
  let rs = t.block_rs.(b) in
  if Vec.length rs < 2 * rs_cap then begin
    Vec.push rs src;
    Vec.push rs field
  end

(* Record [src]'s outgoing cross-block references in the destination
   blocks' remembered sets — done by the barrier for mutator stores and
   during evacuation for survivors (remset maintenance). *)
let record_outgoing t (src : Obj_model.t) =
  if not (Heap.is_los t.heap src) then begin
    let reg = t.heap.registry in
    for field = 0 to Obj_model.nfields src - 1 do
      let r = Obj_model.field src field in
      if r <> null then begin
        let referent = Obj_model.Registry.find_live reg r in
        if
          referent.Obj_model.id <> null
          && (not (is_young t referent))
          && not (Heap.is_los t.heap referent)
        then begin
          let b = block_of t referent in
          if b <> block_of t src then rs_push t b src.id field
        end
      end
    done
  end

let gray_push t id =
  if id <> null && not (Mark_bitset.marked t.heap.marks id) then begin
    Mark_bitset.mark t.heap.marks id;
    Vec.push t.gray id
  end

(* --- Young (and mixed) collections ------------------------------------ *)

let evacuate_young t tc =
  let c = Sim.cost t.sim in
  let threads = c.gc_threads in
  let queue = Par.take_scratch () in
  let push id =
    if id <> null && not (Mark_bitset.marked t.young_marks id) then begin
      Mark_bitset.mark t.young_marks id;
      Vec.push queue id
    end
  in
  Gc_kernels.iter_roots t.roots push;
  (* Seed from the old->young remembered set. *)
  let n = Vec.length t.young_rs / 2 in
  for i = 0 to n - 1 do
    let src = Vec.get t.young_rs (2 * i) and field = Vec.get t.young_rs ((2 * i) + 1) in
    Trace_cost.add_parallel tc ~threads ~cost_ns:c.remset_entry_ns;
    let src_obj = Obj_model.Registry.find_live t.heap.registry src in
    if src_obj.Obj_model.id <> null && not (is_young t src_obj) then begin
      let r = Obj_model.field src_obj field in
      if r <> null then push r
    end
  done;
  Vec.clear t.young_rs;
  while not (Vec.is_empty queue) do
    let frontier = Vec.length queue in
    let id = Vec.pop queue in
    Trace_cost.add tc ~threads ~frontier ~cost_ns:c.trace_obj_ns;
    let obj = Obj_model.Registry.find_live t.heap.registry id in
    if obj.Obj_model.id <> null then begin
      (* The trace stops at the young/old boundary: old objects are not
         part of the collection set. *)
      if is_young t obj then begin
        if Heap.evacuate t.heap t.gc_alloc obj then begin
          t.copied_bytes <- t.copied_bytes + obj.size;
          Trace_cost.add tc ~threads ~frontier
            ~cost_ns:(c.copy_ns_per_byte *. Float.of_int obj.size)
        end;
        (* Promotion: keep marking-cycle and remembered sets coherent. *)
        if t.marking then gray_push t obj.id;
        record_outgoing t obj;
        Hashtbl.remove t.young_los obj.id;
        Obj_model.iter_fields push obj
      end
    end
  done;
  Par.recycle_scratch queue

let sweep_young_blocks t tc =
  let c = Sim.cost t.sim in
  let young = ref [] in
  for b = Heap_config.blocks t.heap.cfg - 1 downto 0 do
    if Blocks.young t.heap.blocks b then young := b :: !young
  done;
  Gc_kernels.sweep_blocks t.heap tc ~cost:c ~threads:c.gc_threads
    ~blocks:(Array.of_list !young)
    ~dead:(fun obj -> not (Mark_bitset.marked t.young_marks obj.Obj_model.id));
  (* Unreached young large objects die with the nursery. *)
  let dead_los =
    Hashtbl.fold
      (fun id () acc ->
        if Mark_bitset.marked t.young_marks id then acc else id :: acc)
      t.young_los []
  in
  List.iter
    (fun id ->
      let obj = Obj_model.Registry.find_live t.heap.registry id in
      if obj.Obj_model.id <> null then Heap.free_object t.heap obj)
    dead_los;
  Hashtbl.reset t.young_los;
  Heap.rebuild_free_lists t.heap

(* Evacuate one old candidate block using its remembered set and roots. *)
let evacuate_old_block t tc b =
  let c = Sim.cost t.sim in
  let threads = c.gc_threads in
  let cfg = t.heap.cfg in
  let move (obj : Obj_model.t) =
    if (not (Obj_model.is_freed obj)) && Addr.block_of cfg (Obj_model.addr obj) = b then begin
      if Heap.evacuate t.heap t.gc_alloc obj then begin
        t.copied_bytes <- t.copied_bytes + obj.size;
        Trace_cost.add_parallel tc ~threads
          ~cost_ns:(c.copy_ns_per_byte *. Float.of_int obj.size);
        record_outgoing t obj
      end
    end
  in
  (* Dead residents (unmarked by the completed cycle) are freed here. *)
  Vec.iter
    (fun id ->
      let obj = Obj_model.Registry.find_live t.heap.registry id in
      if
        obj.Obj_model.id <> null
        && Addr.block_of cfg (Obj_model.addr obj) = b
        && not (Mark_bitset.marked t.heap.marks id)
      then Heap.free_object t.heap obj)
    (Blocks.residents t.heap.blocks b);
  Gc_kernels.iter_roots t.roots (fun id ->
      let obj = Obj_model.Registry.find_live t.heap.registry id in
      if obj.Obj_model.id <> null then move obj);
  let rs = t.block_rs.(b) in
  let n = Vec.length rs / 2 in
  for i = 0 to n - 1 do
    let src = Vec.get rs (2 * i) and field = Vec.get rs ((2 * i) + 1) in
    Trace_cost.add_parallel tc ~threads ~cost_ns:c.remset_entry_ns;
    let src_obj = Obj_model.Registry.find_live t.heap.registry src in
    if src_obj.Obj_model.id <> null then begin
      let r = Obj_model.field src_obj field in
      if r <> null then begin
        let referent = Obj_model.Registry.find_live t.heap.registry r in
        if referent.Obj_model.id <> null then move referent
      end
    end
  done;
  Vec.clear rs;
  Blocks.compact t.heap.blocks b ~live:(fun id ->
      let obj = Obj_model.Registry.find_live t.heap.registry id in
      obj.Obj_model.id <> null && Addr.block_of cfg (Obj_model.addr obj) = b);
  Trace_cost.add_parallel tc ~threads ~cost_ns:c.sweep_block_ns;
  if Rc_table.block_is_free t.heap.rc cfg b then begin
    Blocks.set_state t.heap.blocks b Blocks.Free;
    true
  end
  else false

let mixed_quota t = max 2 (Heap_config.blocks t.heap.cfg / 16)

let young_gc t =
  if not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    t.young_gcs <- t.young_gcs + 1;
    Heap.retire_all_allocators t.heap;
    Trace_cost.add_parallel tc ~threads:c.gc_threads
      ~cost_ns:(Float.of_int (Array.length t.roots) *. c.root_scan_ns);
    evacuate_young t tc;
    Bump_allocator.retire_all t.gc_alloc;
    sweep_young_blocks t tc;
    Mark_bitset.clear t.young_marks;
    (* Mixed phase: also evacuate a few old candidates in this pause. *)
    if t.mixed_pending then begin
      t.mixed_gcs <- t.mixed_gcs + 1;
      let rec go quota = function
        | [] ->
          t.mixed_pending <- false;
          Mark_bitset.clear t.heap.marks;
          []
        | rest when quota = 0 -> rest
        | b :: rest ->
          ignore (evacuate_old_block t tc b);
          go (quota - 1) rest
      in
      t.mixed_candidates <- go (mixed_quota t) t.mixed_candidates;
      Bump_allocator.retire_all t.gc_alloc;
      (* The copies landed in fresh to-space blocks, which the allocator
         flags young; they hold old objects, so a later young trace must
         not treat them as nursery. No mutator allocator is live here,
         so every young-flagged block is such a to-space block. *)
      Blocks.clear_young t.heap.blocks;
      Heap.rebuild_free_lists t.heap
    end;
    Heap.clear_touched t.heap;
    Heap.ensure_reserve t.heap;
    t.bytes_since_young_gc <- 0;
    t.heap.epoch <- t.heap.epoch + 1;
    (* Start a marking cycle when old occupancy crosses the threshold. *)
    let total = Heap_config.blocks t.heap.cfg in
    let free = Blocks.count_state t.heap.blocks Blocks.Free in
    if (not t.marking) && (not t.mixed_pending)
       && Float.of_int (total - free) > 0.45 *. Float.of_int total
    then begin
      t.marking <- true;
      t.marking_cycles <- t.marking_cycles + 1;
      t.remark_ready <- false;
      Mark_bitset.clear t.heap.marks;
      Gc_kernels.iter_roots t.roots (gray_push t)
    end;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

(* Remark pause: finish marking, free wholly dead blocks, pick mixed
   candidates. *)
let remark t =
  if not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    Heap.retire_all_allocators t.heap;
    Gc_kernels.drain_marked t.heap tc ~cost:c ~threads:c.gc_threads
      ~gray:t.gray;
    t.marking <- false;
    t.remark_ready <- false;
    (* Cleanup: reclaim blocks with no marked residents at all, free dead
       large objects, and select mixed candidates by live occupancy. *)
    let cfg = t.heap.cfg in
    let candidates = ref [] in
    Gc_kernels.marked_block_liveness t.heap (fun b live ->
        Trace_cost.add_parallel tc ~threads:c.gc_threads ~cost_ns:c.sweep_block_ns;
        if live = 0 then begin
          Vec.iter
            (fun id ->
              let obj = Obj_model.Registry.find_live t.heap.registry id in
              if obj.Obj_model.id <> null && block_of t obj = b then
                Heap.free_object t.heap obj)
            (Blocks.residents t.heap.blocks b);
          Blocks.compact t.heap.blocks b ~live:(fun _ -> false);
          Blocks.set_state t.heap.blocks b Blocks.Free;
          Vec.clear t.block_rs.(b)
        end
        else if Float.of_int live < 0.5 *. Float.of_int cfg.block_bytes then
          candidates := (b, live) :: !candidates);
    Obj_model.Registry.iter
      (fun obj ->
        if Heap.is_los t.heap obj
           && (not (Hashtbl.mem t.young_los obj.id))
           && not (Mark_bitset.marked t.heap.marks obj.id)
        then Heap.free_object t.heap obj)
      t.heap.registry;
    Heap.rebuild_free_lists t.heap;
    t.mixed_candidates <-
      List.map fst (List.sort (fun (_, a) (_, b) -> compare a b) !candidates);
    t.mixed_pending <- true;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

(* Fallback full STW collection (G1's serial full GC). *)
let full_gc t =
  if not t.in_collection then begin
    t.in_collection <- true;
    let c = Sim.cost t.sim in
    let tc = Trace_cost.create () in
    t.full_gcs <- t.full_gcs + 1;
    Heap.release_reserve t.heap;
    (* Abandon any in-flight cycle. *)
    t.marking <- false;
    t.remark_ready <- false;
    t.mixed_pending <- false;
    t.mixed_candidates <- [];
    Vec.clear t.gray;
    Mark_bitset.clear t.heap.marks;
    Heap.retire_all_allocators t.heap;
    (* G1's fallback full collection is mark-sweep-compact. *)
    Gc_kernels.mark_from t.heap tc ~cost:c ~threads:c.gc_threads
      ~seeds:(Gc_kernels.iter_roots t.roots);
    ignore (Gc_kernels.sweep_unmarked t.heap tc ~cost:c ~threads:c.gc_threads);
    t.copied_bytes <-
      t.copied_bytes
      + Compaction.compact t.heap tc ~cost:c ~threads:c.gc_threads
          ~gc_alloc:t.gc_alloc;
    (* Compaction's to-space blocks are flagged young but hold survivors
       (see the mixed phase). *)
    Blocks.clear_young t.heap.blocks;
    Mark_bitset.clear t.heap.marks;
    Mark_bitset.clear t.young_marks;
    Hashtbl.reset t.young_los;
    Vec.clear t.young_rs;
    Array.iter Vec.clear t.block_rs;
    Heap.clear_touched t.heap;
    Heap.ensure_reserve t.heap;
    t.bytes_since_young_gc <- 0;
    Gc_kernels.pause_of t.sim tc;
    t.in_collection <- false
  end

(* --- Collector hooks --------------------------------------------------- *)

let on_write t (src : Obj_model.t) field new_ref =
  let c = Sim.cost t.sim in
  (* SATB barrier while marking: the overwritten value joins the trace. *)
  if t.marking then begin
    let old = Obj_model.field src field in
    if old <> null then begin
      Sim.charge_mutator t.sim c.satb_wb_ns;
      gray_push t old
    end
  end;
  (* Post-write barrier: remember cross-generation / cross-block refs. *)
  if new_ref <> null && not (is_young t src) then begin
    let referent = Obj_model.Registry.find_live t.heap.registry new_ref in
    if referent.Obj_model.id <> null then begin
      if is_young t referent then begin
        Sim.charge_mutator t.sim c.card_wb_ns;
        Vec.push t.young_rs src.id;
        Vec.push t.young_rs field
      end
      else if (not (Heap.is_los t.heap referent))
              && (not (Heap.is_los t.heap src))
              && block_of t referent <> block_of t src
      then begin
        Sim.charge_mutator t.sim c.card_wb_ns;
        rs_push t (block_of t referent) src.id field
      end
    end
  end

let on_alloc t (obj : Obj_model.t) =
  Heap.pin t.heap obj;
  t.bytes_since_young_gc <- t.bytes_since_young_gc + obj.size;
  if Heap.is_los t.heap obj then Hashtbl.replace t.young_los obj.id ();
  if t.marking then Mark_bitset.mark t.heap.marks obj.id

let poll t () =
  if t.remark_ready then remark t;
  let low =
    Free_lists.free_count t.heap.free < max 3 (Heap_config.blocks t.heap.cfg / 16)
  in
  if t.bytes_since_young_gc >= t.nursery_bytes then young_gc t
  else if low then begin
    (* Space pressure: finish the cycle and evacuate old regions rather
       than thrashing on empty nurseries. *)
    if t.marking then remark t;
    if t.mixed_pending || t.bytes_since_young_gc >= t.nursery_bytes / 8 then
      young_gc t
  end

(* The degradation ladder. [Young]: one young (possibly mixed) pause.
   [Full]: finish the marking cycle and drain the mixed candidates so
   old-region garbage goes too. [Emergency]: the serial full
   mark-sweep-compact fallback. *)
let collect_for_alloc t pressure =
  match pressure with
  | Collector.Young -> young_gc t
  | Collector.Full ->
    if t.marking then remark t;
    while t.mixed_pending && Heap.available_blocks t.heap < 4 do
      young_gc t
    done
  | Collector.Emergency -> full_gc t

let remset_entries t () =
  let acc = ref [] in
  let pairs rs =
    let n = Vec.length rs / 2 in
    for i = 0 to n - 1 do
      acc := (Vec.get rs (2 * i), Vec.get rs ((2 * i) + 1)) :: !acc
    done
  in
  pairs t.young_rs;
  Array.iter pairs t.block_rs;
  !acc

let introspect t =
  { Collector.no_introspection with
    remset_entries = remset_entries t;
    trace_active = (fun () -> t.marking) }

let conc_active t () = if t.marking && not (Vec.is_empty t.gray) then 2 else 0

let conc_run t ~budget_ns =
  let c = Sim.cost t.sim in
  let penalty = 1.0 /. c.conc_efficiency in
  let consumed = ref 0.0 in
  let push r = if r <> null then gray_push t r in
  while t.marking && (not (Vec.is_empty t.gray)) && !consumed < budget_ns do
    let id = Vec.pop t.gray in
    consumed := !consumed +. (c.trace_obj_ns *. penalty);
    let obj = Obj_model.Registry.find_live t.heap.registry id in
    if obj.Obj_model.id <> null then Obj_model.iter_fields push obj
  done;
  if t.marking && Vec.is_empty t.gray then t.remark_ready <- true;
  !consumed

let factory : Collector.factory =
 fun sim heap ~roots ->
  let cfg = heap.Heap.cfg in
  let nblocks = Heap_config.blocks cfg in
  let t =
    { sim;
      heap;
      roots;
      gc_alloc = Heap.make_allocator heap;
      young_marks = Mark_bitset.create ();
      young_rs = Vec.create ~capacity:256 ();
      block_rs = Array.init nblocks (fun _ -> Vec.create ~capacity:4 ());
      young_los = Hashtbl.create 16;
      gray = Vec.create ~capacity:256 ();
      marking = false;
      remark_ready = false;
      mixed_pending = false;
      mixed_candidates = [];
      nursery_bytes = max (4 * cfg.block_bytes) (cfg.heap_bytes / 5);
      bytes_since_young_gc = 0;
      young_gcs = 0;
      mixed_gcs = 0;
      full_gcs = 0;
      marking_cycles = 0;
      copied_bytes = 0;
      in_collection = false }
  in
  Heap.ensure_reserve heap;
  let c = Sim.cost sim in
  { Collector.name = "G1";
    on_alloc = on_alloc t;
    on_write = on_write t;
    write_extra_ns = c.card_wb_ns;
    read_extra_ns = 0.0;
    poll = poll t;
    collect_for_alloc = collect_for_alloc t;
    conc_active = conc_active t;
    conc_run = (fun ~budget_ns -> conc_run t ~budget_ns);
    conc_backlog = (fun () -> 0);
    on_finish = (fun () -> ());
    stats =
      (fun () ->
        [ ("young_gcs", Float.of_int t.young_gcs);
          ("mixed_gcs", Float.of_int t.mixed_gcs);
          ("full_gcs", Float.of_int t.full_gcs);
          ("marking_cycles", Float.of_int t.marking_cycles);
          ("copied_bytes", Float.of_int t.copied_bytes) ]);
    introspect = introspect t }
