open Repro_heap

(* Reclassify every non-reserve data block from the RC table, rebuilding
   the free lists, so partially filled compaction destinations become
   recyclable. *)
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
      (* Sparsest-first selection, cumulative live within the free-block
         budget so every selected block empties completely. *)
      let candidates = ref [] in
      for b = 0 to Heap_config.blocks cfg - 1 do
        match Blocks.state heap.Heap.blocks b with
        | Blocks.In_use | Blocks.Recyclable ->
          let live = Heap.live_bytes_in_block heap b in
          (* Dense blocks are not worth copying. *)
          if live > 0 && live * 100 < cfg.block_bytes * 85 then
            candidates := (b, live) :: !candidates
        | Blocks.Free | Blocks.Owned | Blocks.Los_backing -> ()
      done;
      let sorted = List.sort (fun (_, a) (_, b) -> compare a b) !candidates in
      let targets =
        List.filter
          (fun (_, live) ->
            if !budget >= live then begin
              budget := !budget - live;
              true
            end
            else false)
          sorted
      in
      List.iter (fun (b, _) -> Blocks.set_target heap.Heap.blocks b true) targets;
      List.iter
        (fun (b, _) ->
          let residents = Blocks.residents heap.Heap.blocks b in
          (* [residents] mutates under evacuation pushes; the snapshot
             length bounds the scan to the pre-evacuation entries. *)
          let n0 = Repro_util.Vec.length residents in
          for r = 0 to n0 - 1 do
            let id = Repro_util.Vec.get residents r in
            let obj = Obj_model.Registry.find_live heap.Heap.registry id in
            if
              obj.Obj_model.id <> Obj_model.null
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
              obj.Obj_model.id <> Obj_model.null
              && Addr.block_of cfg (Obj_model.addr obj) = b))
        targets;
      List.iter (fun (b, _) -> Blocks.set_target heap.Heap.blocks b false) targets;
      Repro_heap.Bump_allocator.retire_all gc_alloc
    end
  done;
  reclassify heap;
  !copied
