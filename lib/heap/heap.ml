open Repro_util

type t = {
  cfg : Heap_config.t;
  rc : Rc_table.t;
  marks : Mark_bitset.t;
  reuse : Reuse_table.t;
  blocks : Blocks.t;
  free : Free_lists.t;
  registry : Obj_model.Registry.t;
  (* LOS backing-block extents as chains keyed by block: a LOS object's
     extent starts at its first backing block (the block of its address,
     which never changes: [evacuate] refuses LOS objects), and each
     backing block's entry is the next one in acquisition order, or -1
     after the last. Entries of other blocks are never read. *)
  los_next : int array;
  touched : Bytes.t;  (* one bit per block *)
  mutable allocators : Bump_allocator.t list;
  reserve : Vec.t;  (* stack: newest reserve block at the end *)
  reserve_member : Bytes.t;  (* one byte per block: in [reserve]? *)
  mark_gray : Vec.t;  (* the mark kernels' frontier *)
  mark_next : Vec.t;  (* ... and their next round *)
  mutable sweep_dead : Obj_model.t array;  (* [sweep_block]'s dead residents *)
  mutable epoch : int;
  mutable on_pre_pause : unit -> unit;
}

let create cfg =
  let nblocks = Heap_config.blocks cfg in
  let t =
    { cfg;
      rc = Rc_table.create cfg;
      marks = Mark_bitset.create ();
      reuse = Reuse_table.create cfg;
      blocks = Blocks.create cfg;
      free = Free_lists.create ();
      registry = Obj_model.Registry.create ();
      los_next = Array.make nblocks (-1);
      touched = Bytes.make ((nblocks + 7) / 8) '\000';
      allocators = [];
      reserve = Vec.create ~capacity:8 ();
      reserve_member = Bytes.make nblocks '\000';
      mark_gray = Vec.create ~capacity:256 ();
      mark_next = Vec.create ~capacity:256 ();
      sweep_dead = Array.make 64 Obj_model.Registry.vacant;
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

(* Only [alloc_los] registers objects above the threshold. *)
let[@inline] is_los t (obj : Obj_model.t) =
  obj.size > t.cfg.los_threshold && not (Obj_model.is_freed obj)

let los_extent t (obj : Obj_model.t) =
  let rec chain b = if b < 0 then [] else b :: chain t.los_next.(b) in
  if is_los t obj then chain (Addr.block_of t.cfg (Obj_model.addr obj)) else []

let align_size t size =
  let size = if size < t.cfg.granule_bytes then t.cfg.granule_bytes else size in
  Bits.round_up size t.cfg.granule_bytes

(* Releases the chain from [b] newest first. *)
let rec release_los_chain t b =
  if b >= 0 then begin
    release_los_chain t t.los_next.(b);
    Blocks.set_state t.blocks b Blocks.Free;
    Free_lists.release_free t.free b
  end

let alloc_los t ~size ~nfields =
  let nblocks = (size + t.cfg.block_bytes - 1) / t.cfg.block_bytes in
  if Free_lists.free_count t.free < nblocks then None
  else begin
    (* Free-list entries may be stale (collectors that re-sweep a block
       push its classification again without deduplication), so validate
       the state on every pop, exactly as the bump allocator does.
       Consuming a stale entry here would stamp a block another owner —
       e.g. the reserve — already holds. *)
    let first = ref (-1) and last = ref (-1) in
    let acquired = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !acquired < nblocks do
      match Free_lists.acquire_free t.free with
      | Some b when Blocks.state t.blocks b = Blocks.Free ->
        Blocks.set_state t.blocks b Blocks.Los_backing;
        if !last < 0 then first := b else t.los_next.(!last) <- b;
        t.los_next.(b) <- -1;
        last := b;
        incr acquired
      | Some _ -> ()
      | None -> exhausted := true
    done;
    if !acquired < nblocks then begin
      (* Stale entries inflated [free_count]; undo and decline. *)
      release_los_chain t !first;
      None
    end
    else begin
      let addr = Addr.block_start t.cfg !first in
      let obj =
        Obj_model.Registry.register t.registry ~size ~nfields ~addr ~birth_epoch:t.epoch
      in
      Blocks.add_resident t.blocks !first obj.id;
      Some obj
    end
  end

(* The none-handle ([Registry.vacant], id = null) stands for failure, so a
   successful small allocation's only box is the handle record itself. *)
let alloc_fast t allocator ~size ~nfields =
  let size = align_size t size in
  if size > t.cfg.los_threshold then begin
    match alloc_los t ~size ~nfields with
    | Some obj -> obj
    | None -> Obj_model.Registry.vacant
  end
  else begin
    let addr = Bump_allocator.alloc_addr allocator ~size in
    if addr < 0 then Obj_model.Registry.vacant
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
  if result = 1 && (not (is_los t obj)) && obj.Obj_model.size > t.cfg.line_bytes
  then Rc_table.mark_straddle t.rc t.cfg ~addr ~size:obj.Obj_model.size;
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
    if is_los t obj then begin
      Rc_table.set t.rc t.cfg addr 0;
      let b = ref (Addr.block_of t.cfg addr) in
      while !b >= 0 do
        Blocks.set_state t.blocks !b Blocks.Free;
        Vec.clear (Blocks.residents t.blocks !b);
        Free_lists.release_free t.free !b;
        b := t.los_next.(!b)
      done
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

let classify_block t b =
  if Rc_table.block_is_free t.rc t.cfg b then Blocks.Free
  else if Rc_table.free_lines_in_block t.rc t.cfg b > 0 then Blocks.Recyclable
  else Blocks.In_use

(* One lookup per resident: the compaction keeps the survivors in place
   and lists the dead, which are freed only after it, so [on_free] hooks
   never see a resident list that their own frees are changing. An id
   listed twice (evacuated out and back in) is listed dead twice and
   freed once. *)
let sweep_block ?(on_free = ignore) t b ~dead =
  let ndead = ref 0 in
  Blocks.compact t.blocks b ~live:(fun id ->
      let obj = Obj_model.Registry.find_live t.registry id in
      if obj.Obj_model.id = Obj_model.null
         || Addr.block_of t.cfg (Obj_model.addr obj) <> b
      then false
      else if dead obj then begin
        if !ndead = Array.length t.sweep_dead then
          t.sweep_dead <-
            Array.append t.sweep_dead
              (Array.make !ndead Obj_model.Registry.vacant);
        t.sweep_dead.(!ndead) <- obj;
        incr ndead;
        false
      end
      else true);
  let freed_bytes = ref 0 in
  for k = 0 to !ndead - 1 do
    let obj = t.sweep_dead.(k) in
    if not (Obj_model.is_freed obj) then begin
      freed_bytes := !freed_bytes + obj.size;
      on_free obj;
      free_object t obj
    end
  done;
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
