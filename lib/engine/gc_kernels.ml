open Repro_util
open Repro_heap

let null = Obj_model.null

let iter_roots roots f =
  for i = Array.length roots - 1 downto 0 do
    let r = roots.(i) in
    if r <> null then f r
  done

(* A body that records a pause of its own would nest one pause in
   another; no collector does, and the check keeps it that way. *)
let stw ?gc_threads sim body =
  let cost = Sim.cost sim in
  let gc_threads = Option.value gc_threads ~default:cost.Cost_model.gc_threads in
  let tc = Trace_cost.create cost ~gc_threads in
  let pauses = Sim.pause_count sim in
  let label = body tc in
  if Sim.pause_count sim <> pauses then invalid_arg "Gc_kernels.stw: nested pause";
  Sim.pause ~label sim
    ~wall_ns:(cost.pause_base_ns +. Trace_cost.critical_ns tc)
    ~cpu_ns:(cost.pause_base_ns +. Trace_cost.cpu_ns tc)

let charge_root_scan tc roots =
  Trace_cost.add_parallel tc
    ~cost_ns:(Float.of_int (Array.length roots) *. (Trace_cost.cost tc).root_scan_ns)

(* Breadth-first rounds, not a LIFO stack: the frontier-limited cost of
   each entry is the size of what is left of its round, so the visit
   order fixes every pause time. *)
let trace_rounds heap tc ~gray scan =
  let next = heap.Heap.mark_next in
  let trace_obj_ns = (Trace_cost.cost tc).trace_obj_ns in
  while Vec.length gray > 0 do
    let n = Vec.length gray in
    for k = 0 to n - 1 do
      Trace_cost.add tc ~frontier:(n - k) ~cost_ns:trace_obj_ns;
      scan (Vec.get gray k) next
    done;
    Vec.clear gray;
    Vec.append gray next;
    Vec.clear next
  done

let drain_marked ?(on_visit = ignore) heap tc ~gray =
  let reg = heap.Heap.registry and marks = heap.Heap.marks in
  trace_rounds heap tc ~gray (fun id next ->
      let obj = Obj_model.Registry.find_live reg id in
      if obj.Obj_model.id <> null then begin
        on_visit obj;
        for j = 0 to Obj_model.nfields obj - 1 do
          let r = Obj_model.field obj j in
          if r <> null && not (Mark_bitset.marked marks r) then begin
            Mark_bitset.mark marks r;
            Vec.push next r
          end
        done
      end)

let mark_from ?on_visit heap tc ~seeds =
  let gray = heap.Heap.mark_gray in
  seeds (fun id ->
      if id <> null && not (Mark_bitset.marked heap.Heap.marks id) then begin
        Mark_bitset.mark heap.Heap.marks id;
        Vec.push gray id
      end);
  drain_marked ?on_visit heap tc ~gray

let sweep_unmarked heap tc =
  let reg = heap.Heap.registry and blocks = heap.Heap.blocks in
  let sweep_block_ns = (Trace_cost.cost tc).sweep_block_ns in
  let freed = ref 0 in
  for s = 0 to Obj_model.Registry.slot_count reg - 1 do
    let obj = Obj_model.Registry.handle_at_live reg s in
    if
      obj.Obj_model.id <> null
      && not (Mark_bitset.marked heap.Heap.marks obj.Obj_model.id)
    then begin
      freed := !freed + obj.Obj_model.size;
      Heap.free_object heap obj
    end
  done;
  let live id = Obj_model.Registry.mem reg id in
  for b = 0 to Heap_config.blocks heap.Heap.cfg - 1 do
    match Blocks.state blocks b with
    | Blocks.In_use | Blocks.Recyclable | Blocks.Owned ->
      Blocks.compact blocks b ~live;
      Trace_cost.add_parallel tc ~cost_ns:sweep_block_ns;
      Blocks.set_young blocks b false;
      Blocks.set_state blocks b (Heap.classify_block heap b)
    | Blocks.Free | Blocks.Los_backing -> ()
  done;
  Heap.rebuild_free_lists heap;
  !freed

let clear_targets heap targets =
  List.iter (fun b -> Blocks.set_target heap.Heap.blocks b false) targets

let full_collection ?(evacuate = fun _ -> false) ?(targets = []) heap tc ~roots
    ~gc_alloc ~compact =
  let copy_ns_per_byte = (Trace_cost.cost tc).copy_ns_per_byte in
  let copied = ref 0 in
  let on_visit (obj : Obj_model.t) =
    if evacuate obj && Heap.evacuate heap gc_alloc obj then begin
      copied := !copied + obj.size;
      Trace_cost.add_parallel tc ~cost_ns:(copy_ns_per_byte *. Float.of_int obj.size)
    end
  in
  mark_from heap tc ~seeds:(iter_roots roots) ~on_visit;
  Bump_allocator.retire_all gc_alloc;
  let freed = sweep_unmarked heap tc in
  (* The recyclable-block allocator skips flagged blocks, and the
     compaction allocates through it. *)
  clear_targets heap targets;
  if compact then copied := !copied + Compaction.compact heap tc ~gc_alloc;
  Mark_bitset.clear heap.Heap.marks;
  Heap.clear_touched heap;
  (freed, !copied)

let emergency_compact sim heap ~gc_alloc =
  let copied = ref 0 in
  stw sim (fun tc ->
      Heap.retire_all_allocators heap;
      (* The reserve goes straight into the compactor's budget, so
         nothing else can claim it first. *)
      Heap.release_reserve heap;
      copied := Compaction.compact heap tc ~gc_alloc;
      "compact");
  !copied

let sweep_blocks ?on_dead ?(on_block = fun _ ~young:_ _ -> ()) heap tc ~blocks ~dead =
  let sweep_block_ns = (Trace_cost.cost tc).sweep_block_ns in
  Array.iter
    (fun b ->
      Trace_cost.add_parallel tc ~cost_ns:sweep_block_ns;
      let young = Blocks.young heap.Heap.blocks b in
      let cls, _ = Heap.sweep_block ?on_free:on_dead heap b ~dead in
      on_block b ~young cls)
    blocks

(* The touched set can hold reserve blocks: an emergency rung's
   compaction may free a block touched earlier in the epoch, and its
   [ensure_reserve] may then adopt it. *)
let sweep_young ?(on_dead = ignore) ?on_block heap tc ~los =
  let touched = Heap.touched_blocks heap in
  let n = ref 0 in
  Array.iter
    (fun b ->
      if Blocks.state heap.Heap.blocks b = Blocks.In_use
         && not (Heap.in_reserve heap b)
      then begin
        touched.(!n) <- b;
        incr n
      end)
    touched;
  let blocks = Array.sub touched 0 !n in
  let unincremented obj = Heap.rc_of heap obj = 0 in
  sweep_blocks ~on_dead ?on_block heap tc ~blocks ~dead:unincremented;
  Vec.iter
    (fun id ->
      let obj = Obj_model.Registry.find_live heap.Heap.registry id in
      if obj.Obj_model.id <> null && unincremented obj then begin
        on_dead obj;
        Heap.free_object heap obj
      end)
    los;
  Vec.clear los;
  Heap.clear_touched heap

let sweep_stale_block heap b =
  if Blocks.state heap.Heap.blocks b = Blocks.In_use
     && (not (Heap.block_touched heap b))
     && not (Heap.in_reserve heap b)
  then ignore (Heap.rc_sweep_block heap b)

let marked_block_liveness heap f =
  let marked obj = Mark_bitset.marked heap.Heap.marks obj.Obj_model.id in
  for b = 0 to Heap_config.blocks heap.Heap.cfg - 1 do
    match Blocks.state heap.Heap.blocks b with
    | (Blocks.In_use | Blocks.Recyclable) when not (Heap.in_reserve heap b) ->
      f b (Heap.live_bytes_in_block heap b ~live:marked)
    | Blocks.In_use | Blocks.Recyclable | Blocks.Free | Blocks.Owned
    | Blocks.Los_backing -> ()
  done

(* Candidates are pushed in ascending block order, so the list is in
   descending block order before the stable sort. *)
let select_fragmented heap ~max_blocks ~occupancy_max =
  let cfg = heap.Heap.cfg in
  let candidates = ref [] in
  for b = 0 to Heap_config.blocks cfg - 1 do
    match Blocks.state heap.Heap.blocks b with
    | Blocks.In_use | Blocks.Recyclable ->
      let live = Heap.live_bytes_in_block heap b in
      if live > 0
         && Float.of_int live < occupancy_max *. Float.of_int cfg.block_bytes
      then candidates := (b, live) :: !candidates
    | Blocks.Free | Blocks.Owned | Blocks.Los_backing -> ()
  done;
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) !candidates in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | (b, _) :: rest -> b :: take (n - 1) rest
  in
  let targets = take max_blocks sorted in
  List.iter (fun b -> Blocks.set_target heap.Heap.blocks b true) targets;
  targets
