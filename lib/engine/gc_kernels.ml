open Repro_util
open Repro_heap

let null = Obj_model.null

let iter_roots roots f =
  for i = Array.length roots - 1 downto 0 do
    let r = roots.(i) in
    if r <> null then f r
  done

let[@inline] mark_push marks stack id =
  if id <> null && not (Mark_bitset.marked marks id) then begin
    Mark_bitset.mark marks id;
    Vec.push stack id
  end

let[@inline] gray_fields marks stack obj =
  for j = 0 to Obj_model.nfields obj - 1 do
    mark_push marks stack (Obj_model.field obj j)
  done

let gray_referents heap stack id =
  let obj = Obj_model.Registry.find_live heap.Heap.registry id in
  if obj.Obj_model.id <> null then gray_fields heap.Heap.marks stack obj

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

let snapshot_roots tc roots ~into =
  Vec.clear into;
  for i = 0 to Array.length roots - 1 do
    let r = roots.(i) in
    if r <> null then Vec.push into r
  done;
  charge_root_scan tc roots

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
      scan next (Vec.get gray k)
    done;
    Vec.clear gray;
    Vec.append gray next;
    Vec.clear next
  done

let drain_marked ?(on_visit = ignore) heap tc ~gray =
  let reg = heap.Heap.registry and marks = heap.Heap.marks in
  trace_rounds heap tc ~gray (fun next id ->
      let obj = Obj_model.Registry.find_live reg id in
      if obj.Obj_model.id <> null then begin
        on_visit obj;
        gray_fields marks next obj
      end)

let mark_from ?on_visit heap tc ~seeds =
  let gray = heap.Heap.mark_gray in
  let marks = heap.Heap.marks in
  seeds (fun id -> mark_push marks gray id);
  drain_marked ?on_visit heap tc ~gray

(* [1.0 /. conc_efficiency] first, as every plan charged it: dividing
   [trace_obj_ns] by the efficiency rounds differently. *)
let[@inline] conc_mark cost ~gray ~budget_ns ~consumed scan env =
  let entry_ns =
    cost.Cost_model.trace_obj_ns *. (1.0 /. cost.Cost_model.conc_efficiency)
  in
  let consumed = ref consumed in
  while (not (Vec.is_empty gray)) && !consumed < budget_ns do
    consumed := !consumed +. entry_ns;
    scan env gray (Vec.pop gray)
  done;
  !consumed

let drain_decrements tc ~queue apply env =
  let dec_ns = (Trace_cost.cost tc).dec_ns in
  while not (Vec.is_empty queue) do
    Trace_cost.add tc ~frontier:(Vec.length queue) ~cost_ns:dec_ns;
    apply env queue (Vec.pop queue)
  done

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

(* Candidates are pushed in ascending block order, so the list is in
   descending block order before the stable sort. *)
let sparse_blocks heap ~sparse =
  let candidates = ref [] in
  for b = 0 to Heap_config.blocks heap.Heap.cfg - 1 do
    match Blocks.state heap.Heap.blocks b with
    | Blocks.In_use | Blocks.Recyclable ->
      let live = Heap.live_bytes_in_block heap b in
      if live > 0 && sparse live then candidates := (b, live) :: !candidates
    | Blocks.Free | Blocks.Owned | Blocks.Los_backing -> ()
  done;
  List.sort (fun (_, a) (_, b) -> Int.compare a b) !candidates

let select_fragmented heap ~max_blocks ~occupancy_max =
  let block_bytes = Float.of_int heap.Heap.cfg.block_bytes in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | (b, _) :: rest -> b :: take (n - 1) rest
  in
  let targets =
    take max_blocks
      (sparse_blocks heap ~sparse:(fun live ->
           Float.of_int live < occupancy_max *. block_bytes))
  in
  List.iter (fun b -> Blocks.set_target heap.Heap.blocks b true) targets;
  targets

let reclassify heap =
  for b = 0 to Heap_config.blocks heap.Heap.cfg - 1 do
    match Blocks.state heap.Heap.blocks b with
    | (Blocks.In_use | Blocks.Recyclable) when not (Heap.in_reserve heap b) ->
      Blocks.set_state heap.Heap.blocks b (Heap.classify_block heap b)
    | Blocks.In_use | Blocks.Recyclable | Blocks.Free | Blocks.Owned
    | Blocks.Los_backing -> ()
  done;
  Heap.rebuild_free_lists heap

let compact heap tc ~gc_alloc =
  let cfg = heap.Heap.cfg and cost = Trace_cost.cost tc in
  let copied = ref 0 in
  let progress = ref true in
  let rounds = ref 0 in
  let enough () =
    (* Stop once a comfortable fraction of the heap is completely free. *)
    Heap.available_blocks heap >= Heap_config.blocks cfg / 4
  in
  while !progress && (not (enough ())) && !rounds < 8 do
    incr rounds;
    progress := false;
    reclassify heap;
    let budget = ref (Heap.available_blocks heap * cfg.block_bytes * 9 / 10) in
    if !budget > 0 then begin
      (* Sparsest first, dense blocks not worth copying, cumulative live
         within the free-block budget so every selected block empties
         completely. *)
      let targets =
        List.filter
          (fun (_, live) ->
            if !budget >= live then begin
              budget := !budget - live;
              true
            end
            else false)
          (sparse_blocks heap ~sparse:(fun live -> live * 100 < cfg.block_bytes * 85))
      in
      List.iter (fun (b, _) -> Blocks.set_target heap.Heap.blocks b true) targets;
      List.iter
        (fun (b, _) ->
          let residents = Blocks.residents heap.Heap.blocks b in
          (* [residents] mutates under evacuation pushes; the snapshot
             length bounds the scan to the pre-evacuation entries. *)
          let n0 = Vec.length residents in
          for r = 0 to n0 - 1 do
            let id = Vec.get residents r in
            let obj = Obj_model.Registry.find_live heap.Heap.registry id in
            if
              obj.Obj_model.id <> null
              && Addr.block_of cfg (Obj_model.addr obj) = b
            then
              if Heap.evacuate heap gc_alloc obj then begin
                copied := !copied + obj.size;
                progress := true;
                Trace_cost.add_parallel tc
                  ~cost_ns:(cost.Cost_model.copy_ns_per_byte *. Float.of_int obj.size)
              end
          done;
          Trace_cost.add_parallel tc ~cost_ns:cost.Cost_model.sweep_block_ns;
          Blocks.compact heap.Heap.blocks b ~live:(fun id ->
              let obj = Obj_model.Registry.find_live heap.Heap.registry id in
              obj.Obj_model.id <> null
              && Addr.block_of cfg (Obj_model.addr obj) = b))
        targets;
      List.iter (fun (b, _) -> Blocks.set_target heap.Heap.blocks b false) targets;
      Bump_allocator.retire_all gc_alloc
    end
  done;
  reclassify heap;
  !copied

let full_collection ?(evacuate = fun _ -> false) ?(targets = []) heap tc ~roots
    ~gc_alloc ~compact:slide =
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
  if slide then copied := !copied + compact heap tc ~gc_alloc;
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
      copied := compact heap tc ~gc_alloc;
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
