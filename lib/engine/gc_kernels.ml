open Repro_util
open Repro_heap
module Par = Repro_par.Par

let null = Obj_model.null

let iter_roots roots f =
  for i = Array.length roots - 1 downto 0 do
    let r = roots.(i) in
    if r <> null then f r
  done

let pause_of ?label sim tc =
  let c = Sim.cost sim in
  Sim.pause ?label sim
    ~wall_ns:(c.pause_base_ns +. Trace_cost.critical_ns tc)
    ~cpu_ns:(c.pause_base_ns +. Trace_cost.cpu_ns tc)

(* Each frontier entry's packet record is [id; k; referent x k], the id
   only when there is a visitor, with k = -1 when the id is no longer
   registered. Visiting, marking and frontier pushes all happen in the
   ordered merge, so the visit order is identical for every lane
   count. *)
let drain_marked ?on_visit heap tc ~pool ~cost ~threads ~gray =
  let reg = heap.Heap.registry and marks = heap.Heap.marks in
  let with_id = Option.is_some on_visit in
  let remaining = ref 0 in
  Par.drain_rounds pool ~packet:Par.queue_per_packet ~frontier:gray
    ~on_round:(fun total -> remaining := total)
    ~scan:(fun id out ->
      if with_id then Vec.push out id;
      let obj = Obj_model.Registry.find_live reg id in
      if obj.Obj_model.id = null then Vec.push out (-1)
      else begin
        let kpos = Vec.length out in
        Vec.push out 0;
        for j = 0 to Obj_model.nfields obj - 1 do
          let r = Obj_model.field obj j in
          if r <> null then Vec.push out r
        done;
        Vec.set out kpos (Vec.length out - kpos - 1)
      end)
    ~merge:(fun out next ->
      let i = ref 0 in
      while !i < Vec.length out do
        let id = if with_id then Vec.get out !i else null in
        if with_id then incr i;
        let k = Vec.get out !i in
        incr i;
        Trace_cost.add tc ~threads ~frontier:!remaining
          ~cost_ns:cost.Cost_model.trace_obj_ns;
        decr remaining;
        (match on_visit with
        | Some visit when k >= 0 ->
          let obj = Obj_model.Registry.find_live reg id in
          if obj.Obj_model.id <> null then visit obj
        | Some _ | None -> ());
        for j = 0 to k - 1 do
          let r = Vec.get out (!i + j) in
          if not (Mark_bitset.marked marks r) then begin
            Mark_bitset.mark marks r;
            Vec.push next r
          end
        done;
        if k > 0 then i := !i + k
      done)

let mark_from ?on_visit heap tc ~pool ~cost ~threads ~seeds =
  let gray = Par.take_scratch () in
  seeds (fun id ->
      if id <> null && not (Mark_bitset.marked heap.Heap.marks id) then begin
        Mark_bitset.mark heap.Heap.marks id;
        Vec.push gray id
      end);
  drain_marked ?on_visit heap tc ~pool ~cost ~threads ~gray;
  Par.recycle_scratch gray

let sweep_unmarked heap tc ~pool ~cost ~threads =
  let freed = ref 0 in
  (* Registry slot packets list the unmarked dead (read-only); frees are
     applied in slot order by the merge. *)
  Par.map_spans pool
    ~total:(Obj_model.Registry.slot_count heap.Heap.registry)
    ~packet:Par.slots_per_packet
    ~f:(fun _ ~lo ~len ->
      let out = Par.take_scratch () in
      for s = lo to lo + len - 1 do
        let obj = Obj_model.Registry.handle_at_live heap.Heap.registry s in
        if
          obj.Obj_model.id <> null
          && not (Mark_bitset.marked heap.Heap.marks obj.Obj_model.id)
        then Vec.push out obj.Obj_model.id
      done;
      out)
    ~merge:(fun _ out ->
      Vec.iter
        (fun id ->
          let obj = Obj_model.Registry.find_live heap.Heap.registry id in
          if obj.Obj_model.id <> null then begin
            freed := !freed + obj.Obj_model.size;
            Heap.free_object heap obj
          end)
        out;
      Par.recycle_scratch out);
  (* Block packets compact their own resident list (cross-block
     independent: residency and registry membership of one block's
     objects are unaffected by other blocks); state flips land in the
     ordered merge. *)
  Par.map_spans pool ~total:(Heap_config.blocks heap.Heap.cfg)
    ~packet:Par.blocks_per_packet
    ~f:(fun _ ~lo ~len ->
      let out = Par.take_scratch () in
      let live id = Obj_model.Registry.mem heap.Heap.registry id in
      for b = lo to lo + len - 1 do
        match Blocks.state heap.Heap.blocks b with
        | Blocks.In_use | Blocks.Recyclable | Blocks.Owned ->
          Blocks.compact heap.Heap.blocks b ~live;
          Vec.push out b
        | Blocks.Free | Blocks.Los_backing -> ()
      done;
      out)
    ~merge:(fun _ out ->
      Vec.iter
        (fun b ->
          Trace_cost.add_parallel tc ~threads
            ~cost_ns:cost.Cost_model.sweep_block_ns;
          Blocks.set_young heap.Heap.blocks b false;
          Blocks.set_state heap.Heap.blocks b (Heap.classify_block heap b))
        out;
      Par.recycle_scratch out);
  Heap.rebuild_free_lists heap;
  !freed

(* Block packets list each block's dead residents as [b; n; id x n] —
   dead-ness in one block is unaffected by frees in another, since
   objects never straddle blocks — while frees, compaction and
   reclassification happen in the ordered merge. *)
let sweep_blocks ?on_dead ?(on_block = fun _ ~young:_ _ -> ()) heap tc ~pool
    ~cost ~threads ~blocks ~dead =
  let cfg = heap.Heap.cfg and reg = heap.Heap.registry in
  Par.map_spans pool ~total:(Array.length blocks) ~packet:Par.blocks_per_packet
    ~f:(fun _ ~lo ~len ->
      let out = Par.take_scratch () in
      for k = lo to lo + len - 1 do
        let b = blocks.(k) in
        Vec.push out b;
        let npos = Vec.length out in
        Vec.push out 0;
        let residents = Blocks.residents heap.Heap.blocks b in
        for r = 0 to Vec.length residents - 1 do
          let obj = Obj_model.Registry.find_live reg (Vec.get residents r) in
          if
            obj.Obj_model.id <> null
            && Addr.block_of cfg (Obj_model.addr obj) = b
            && dead obj
          then Vec.push out obj.Obj_model.id
        done;
        Vec.set out npos (Vec.length out - npos - 1)
      done;
      out)
    ~merge:(fun _ out ->
      let i = ref 0 in
      while !i < Vec.length out do
        let b = Vec.get out !i and n = Vec.get out (!i + 1) in
        let off = !i + 2 in
        i := off + n;
        Trace_cost.add_parallel tc ~threads ~cost_ns:cost.Cost_model.sweep_block_ns;
        let young = Blocks.young heap.Heap.blocks b in
        let cls, _ = Heap.sweep_apply ?on_free:on_dead heap b ~dead:out ~off ~len:n in
        on_block b ~young cls
      done;
      Par.recycle_scratch out)

(* The touched set can hold reserve blocks: an emergency rung's
   compaction may free a block touched earlier in the epoch, and its
   [ensure_reserve] may then adopt it. *)
let sweep_young ?(on_dead = ignore) ?on_block heap tc ~pool ~cost ~threads ~los =
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
  sweep_blocks ~on_dead ?on_block heap tc ~pool ~cost ~threads ~blocks
    ~dead:unincremented;
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

let marked_block_liveness heap ~pool f =
  let marked obj = Mark_bitset.marked heap.Heap.marks obj.Obj_model.id in
  Par.map_spans pool ~total:(Heap_config.blocks heap.Heap.cfg)
    ~packet:Par.blocks_per_packet
    ~f:(fun _ ~lo ~len ->
      let out = Par.take_scratch () in
      for b = lo to lo + len - 1 do
        match Blocks.state heap.Heap.blocks b with
        | (Blocks.In_use | Blocks.Recyclable) when not (Heap.in_reserve heap b) ->
          Vec.push out b;
          Vec.push out (Heap.live_bytes_in_block heap b ~live:marked)
        | Blocks.In_use | Blocks.Recyclable | Blocks.Free | Blocks.Owned
        | Blocks.Los_backing -> ()
      done;
      out)
    ~merge:(fun _ out ->
      for k = 0 to (Vec.length out / 2) - 1 do
        f (Vec.get out (2 * k)) (Vec.get out ((2 * k) + 1))
      done;
      Par.recycle_scratch out)

let select_fragmented heap ~pool ~max_blocks ~occupancy_max =
  let cfg = heap.Heap.cfg in
  let candidates = ref [] in
  (* Packet bodies compute exact per-block liveness (read-only); the
     merge push-fronts in ascending block order, so the candidate list
     is in descending block order before the stable sort. *)
  Par.map_spans pool ~total:(Heap_config.blocks cfg)
    ~packet:Par.blocks_per_packet
    ~f:(fun _ ~lo ~len ->
      let out = ref [] in
      for b = lo to lo + len - 1 do
        match Blocks.state heap.Heap.blocks b with
        | Blocks.In_use | Blocks.Recyclable ->
          let live = Heap.live_bytes_in_block heap b in
          if live > 0
             && Float.of_int live < occupancy_max *. Float.of_int cfg.block_bytes
          then out := (b, live) :: !out
        | Blocks.Free | Blocks.Owned | Blocks.Los_backing -> ()
      done;
      List.rev !out)
    ~merge:(fun _ pairs ->
      List.iter (fun c -> candidates := c :: !candidates) pairs);
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) !candidates in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | (b, _) :: rest -> b :: take (n - 1) rest
  in
  let targets = take max_blocks sorted in
  List.iter (fun b -> Blocks.set_target heap.Heap.blocks b true) targets;
  targets

let clear_targets heap targets =
  List.iter (fun b -> Blocks.set_target heap.Heap.blocks b false) targets
