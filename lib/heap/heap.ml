open Repro_util

type t = {
  cfg : Heap_config.t;
  rc : Rc_table.t;
  marks : Mark_bitset.t;
  reuse : Reuse_table.t;
  blocks : Blocks.t;
  free : Free_lists.t;
  registry : Obj_model.Registry.t;
  (* LOS backing-block extents, keyed by registry slot: (offset, length)
     into [los_pool]. Slot-keyed data is cleared in [free_object] before
     the slot is recycled, so a reused slot never inherits LOS state. *)
  mutable los_off : int array;
  mutable los_len : int array;
  los_pool : Vec.t;
  touched : Bytes.t;  (* one bit per block *)
  mutable allocators : Bump_allocator.t list;
  reserve : Vec.t;  (* stack: newest reserve block at the end *)
  reserve_member : Bytes.t;  (* one byte per block: in [reserve]? *)
  sweep_scratch : Vec.t;  (* per-heap: fleet replicas sweep concurrently *)
  mutable epoch : int;
  mutable on_pre_pause : unit -> unit;
}

let create ?ids_hint cfg =
  let nblocks = Heap_config.blocks cfg in
  let t =
    { cfg;
      rc = Rc_table.create cfg;
      marks = Mark_bitset.create ();
      reuse = Reuse_table.create cfg;
      blocks = Blocks.create cfg;
      free = Free_lists.create ();
      registry = Obj_model.Registry.create ?ids_hint ();
      los_off = Array.make 1024 0;
      los_len = Array.make 1024 0;
      los_pool = Vec.create ~capacity:16 ();
      touched = Bytes.make ((nblocks + 7) / 8) '\000';
      allocators = [];
      reserve = Vec.create ~capacity:8 ();
      reserve_member = Bytes.make nblocks '\000';
      sweep_scratch = Vec.create ~capacity:64 ();
      epoch = 0;
      on_pre_pause = ignore }
  in
  for b = nblocks - 1 downto 0 do
    Free_lists.release_free t.free b
  done;
  t

let make_allocator t =
  let a =
    Bump_allocator.create t.cfg ~rc:t.rc ~blocks:t.blocks ~free:t.free ~reuse:t.reuse
  in
  t.allocators <- a :: t.allocators;
  a

let retire_all_allocators t =
  t.on_pre_pause ();
  List.iter Bump_allocator.retire_all t.allocators

(* --- touched blocks (bitset; ascending iteration order) ---------------- *)

let touch t b =
  let byte = b lsr 3 in
  Bytes.set t.touched byte
    (Char.chr (Char.code (Bytes.get t.touched byte) lor (1 lsl (b land 7))))

let block_touched t b =
  Char.code (Bytes.get t.touched (b lsr 3)) land (1 lsl (b land 7)) <> 0

(* Ascending block order by construction — consumers must not depend on
   the old hashtable iteration order (see test_heap "touched ascending"). *)
let touched_blocks t =
  let n = Heap_config.blocks t.cfg in
  let count = ref 0 in
  for b = 0 to n - 1 do
    if block_touched t b then incr count
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for b = 0 to n - 1 do
    if block_touched t b then begin
      out.(!k) <- b;
      incr k
    end
  done;
  out

let clear_touched t = Bytes.fill t.touched 0 (Bytes.length t.touched) '\000'

(* --- LOS ---------------------------------------------------------------- *)

let ensure_los_slot t slot =
  if slot >= Array.length t.los_len then begin
    t.los_off <- Int_array.grow t.los_off (slot + 1) 0;
    t.los_len <- Int_array.grow t.los_len (slot + 1) 0
  end

let is_los t (obj : Obj_model.t) =
  (not (Obj_model.is_freed obj))
  && obj.slot < Array.length t.los_len
  && t.los_len.(obj.slot) > 0

let los_extent t (obj : Obj_model.t) =
  if is_los t obj then
    List.init t.los_len.(obj.slot) (fun i -> Vec.get t.los_pool (t.los_off.(obj.slot) + i))
  else []

let align_size t size =
  let size = if size < t.cfg.granule_bytes then t.cfg.granule_bytes else size in
  Bits.round_up size t.cfg.granule_bytes

let alloc_los t ~size ~nfields =
  let nblocks = (size + t.cfg.block_bytes - 1) / t.cfg.block_bytes in
  if Free_lists.free_count t.free < nblocks then None
  else begin
    let off = Vec.length t.los_pool in
    (* Free-list entries may be stale (collectors that re-sweep a block
       push its classification again without deduplication), so validate
       the state on every pop, exactly as the bump allocator does.
       Consuming a stale entry here would stamp a block another owner —
       e.g. the reserve — already holds. *)
    let acquired = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !acquired < nblocks do
      match Free_lists.acquire_free t.free with
      | Some b when Blocks.state t.blocks b = Blocks.Free ->
        Blocks.set_state t.blocks b Blocks.Los_backing;
        Vec.push t.los_pool b;
        incr acquired
      | Some _ -> ()
      | None -> exhausted := true
    done;
    if !acquired < nblocks then begin
      (* Stale entries inflated [free_count]; undo and decline. *)
      for _ = 1 to !acquired do
        let b = Vec.pop t.los_pool in
        Blocks.set_state t.blocks b Blocks.Free;
        Free_lists.release_free t.free b
      done;
      None
    end
    else begin
    let first = Vec.get t.los_pool off in
    let addr = Addr.block_start t.cfg first in
    let obj =
      Obj_model.Registry.register t.registry ~size ~nfields ~addr ~birth_epoch:t.epoch
    in
    ensure_los_slot t obj.slot;
    t.los_off.(obj.slot) <- off;
    t.los_len.(obj.slot) <- nblocks;
    Blocks.add_resident t.blocks first obj.id;
    Some obj
    end
  end

(* The store's none-handle (id = null) stands for failure, so a
   successful small allocation's only box is the handle record itself. *)
let alloc_fast t allocator ~size ~nfields =
  let size = align_size t size in
  if size > t.cfg.los_threshold then begin
    match alloc_los t ~size ~nfields with
    | Some obj -> obj
    | None -> Obj_model.Registry.none_handle t.registry
  end
  else begin
    let addr = Bump_allocator.alloc_addr allocator ~size in
    if addr < 0 then Obj_model.Registry.none_handle t.registry
    else begin
      let obj =
        Obj_model.Registry.register t.registry ~size ~nfields ~addr ~birth_epoch:t.epoch
      in
      let b = Addr.block_of t.cfg addr in
      Blocks.add_resident t.blocks b obj.id;
      touch t b;
      obj
    end
  end

let rc_of t obj = Rc_table.get t.rc t.cfg (Obj_model.addr obj)

let rc_inc t obj =
  let addr = Obj_model.addr obj in
  let result = Rc_table.inc t.rc t.cfg addr in
  (match result with
  | `Became 1 when not (is_los t obj) && obj.Obj_model.size > t.cfg.line_bytes ->
    Rc_table.mark_straddle t.rc t.cfg ~addr ~size:obj.Obj_model.size
  | `Became _ | `Stuck -> ());
  result

let rc_dec t obj = Rc_table.dec t.rc t.cfg (Obj_model.addr obj)

let rc_is_stuck t obj = rc_of t obj = Heap_config.stuck_count t.cfg

let pin t (obj : Obj_model.t) =
  let addr = Obj_model.addr obj in
  Rc_table.set t.rc t.cfg addr (Heap_config.stuck_count t.cfg);
  if (not (is_los t obj)) && obj.size > t.cfg.line_bytes then
    Rc_table.mark_straddle t.rc t.cfg ~addr ~size:obj.size

let free_object t obj =
  if not (Obj_model.is_freed obj) then begin
    let addr = Obj_model.addr obj in
    let slot = obj.Obj_model.slot in
    if slot < Array.length t.los_len && t.los_len.(slot) > 0 then begin
      Rc_table.set t.rc t.cfg addr 0;
      let off = t.los_off.(slot) and n = t.los_len.(slot) in
      for i = 0 to n - 1 do
        let b = Vec.get t.los_pool (off + i) in
        Blocks.set_state t.blocks b Blocks.Free;
        Vec.clear (Blocks.residents t.blocks b);
        Free_lists.release_free t.free b
      done;
      t.los_len.(slot) <- 0
    end
    else Rc_table.clear_range t.rc t.cfg ~addr ~size:obj.Obj_model.size;
    Obj_model.Registry.free t.registry obj
  end

let evacuate t gc_alloc obj =
  if is_los t obj || Obj_model.is_freed obj then false
  else begin
    let new_addr = Bump_allocator.alloc_addr gc_alloc ~size:obj.Obj_model.size in
    if new_addr < 0 then false
    else begin
      let old_addr = Obj_model.addr obj in
      let count = Rc_table.get t.rc t.cfg old_addr in
      Rc_table.clear_range t.rc t.cfg ~addr:old_addr ~size:obj.size;
      Obj_model.set_addr obj new_addr;
      Rc_table.set t.rc t.cfg new_addr count;
      if count > 0 && obj.size > t.cfg.line_bytes then
        Rc_table.mark_straddle t.rc t.cfg ~addr:new_addr ~size:obj.size;
      let b = Addr.block_of t.cfg new_addr in
      Blocks.add_resident t.blocks b obj.id;
      touch t b;
      true
    end
  end

let resident_live t b id =
  let obj = Obj_model.Registry.find_live t.registry id in
  obj.Obj_model.id <> Obj_model.null && Addr.block_of t.cfg (Obj_model.addr obj) = b

let classify_block t b =
  if Rc_table.block_is_free t.rc t.cfg b then Blocks.Free
  else if Rc_table.free_lines_in_block t.rc t.cfg b > 0 then Blocks.Recyclable
  else Blocks.In_use

(* List block [b]'s dead residents first, then free them: [on_free]
   hooks never see a resident list that their own frees are changing. *)
let sweep_block ?(on_free = ignore) t b ~dead =
  let dead_ids = t.sweep_scratch in
  Vec.clear dead_ids;
  let residents = Blocks.residents t.blocks b in
  for r = 0 to Vec.length residents - 1 do
    let obj = Obj_model.Registry.find_live t.registry (Vec.get residents r) in
    if
      obj.Obj_model.id <> Obj_model.null
      && Addr.block_of t.cfg (Obj_model.addr obj) = b
      && dead obj
    then Vec.push dead_ids obj.Obj_model.id
  done;
  let freed_bytes = ref 0 in
  for k = 0 to Vec.length dead_ids - 1 do
    let obj = Obj_model.Registry.find_live t.registry (Vec.get dead_ids k) in
    if obj.Obj_model.id <> Obj_model.null then begin
      freed_bytes := !freed_bytes + obj.size;
      on_free obj;
      free_object t obj
    end
  done;
  Blocks.compact t.blocks b ~live:(resident_live t b);
  Blocks.set_young t.blocks b false;
  let state = classify_block t b in
  Blocks.set_state t.blocks b state;
  let classification =
    match state with
    | Blocks.Free ->
      Free_lists.release_free t.free b;
      `Freed
    | Blocks.Recyclable ->
      Free_lists.release_recyclable t.free b;
      `Recyclable (Rc_table.free_lines_in_block t.rc t.cfg b)
    | Blocks.In_use | Blocks.Owned | Blocks.Los_backing -> `Full
  in
  (classification, !freed_bytes)

(* The dead are residents that died with a zero count: young objects
   that never received an increment and were never individually freed. *)
let rc_sweep_block t b = sweep_block t b ~dead:(fun obj -> rc_of t obj = 0)

let available_blocks t = Free_lists.free_count t.free

(* ~1/16 of the heap, but never more than 1/8 — degenerate few-block
   heaps get little or no reserve rather than losing half their space. *)
let reserve_target t =
  let blocks = Heap_config.blocks t.cfg in
  min (blocks / 8) (max 1 (blocks / 16))

(* Newest-first release, matching the stack discipline of [ensure_reserve]. *)
let release_reserve t =
  for i = Vec.length t.reserve - 1 downto 0 do
    let b = Vec.get t.reserve i in
    Bytes.set t.reserve_member b '\000';
    Blocks.set_state t.blocks b Blocks.Free;
    Free_lists.release_free t.free b
  done;
  Vec.clear t.reserve

(* Reserve blocks are [In_use] with all-zero counts, so a sweep that
   visits one would dissolve it back into circulation. *)
let in_reserve t b = Bytes.get t.reserve_member b <> '\000'

let ensure_reserve t =
  (* Drop blocks a sweep may have dissolved back into circulation,
     preserving the stack order of the survivors. *)
  let keep = ref 0 in
  for i = 0 to Vec.length t.reserve - 1 do
    let b = Vec.get t.reserve i in
    if Blocks.state t.blocks b = Blocks.In_use then begin
      Vec.set t.reserve !keep b;
      incr keep
    end
    else Bytes.set t.reserve_member b '\000'
  done;
  while Vec.length t.reserve > !keep do
    ignore (Vec.pop t.reserve)
  done;
  let missing = ref (reserve_target t - Vec.length t.reserve) in
  let exhausted = ref false in
  while !missing > 0 && not !exhausted do
    match Free_lists.acquire_free t.free with
    | Some b when Blocks.state t.blocks b = Blocks.Free ->
      Blocks.set_state t.blocks b Blocks.In_use;
      Vec.push t.reserve b;
      Bytes.set t.reserve_member b '\001';
      decr missing
    | Some _ -> ()
    | None -> exhausted := true
  done

let rebuild_free_lists t =
  Free_lists.clear t.free;
  for b = Heap_config.blocks t.cfg - 1 downto 0 do
    match Blocks.state t.blocks b with
    | Blocks.Free -> Free_lists.release_free t.free b
    | Blocks.Recyclable -> Free_lists.release_recyclable t.free b
    | Blocks.Owned | Blocks.In_use | Blocks.Los_backing -> ()
  done

let live_bytes_in_block ?(live = fun _ -> true) t b =
  Vec.fold
    (fun acc id ->
      let obj = Obj_model.Registry.find_live t.registry id in
      if
        obj.Obj_model.id <> Obj_model.null
        && Addr.block_of t.cfg (Obj_model.addr obj) = b
        && live obj
      then acc + obj.size
      else acc)
    0
    (Blocks.residents t.blocks b)

let live_bytes t = Obj_model.Registry.live_bytes t.registry
let total_bytes t = t.cfg.heap_bytes
