(* Tests for the to-space reserve and the sliding compactor — the
   machinery that guarantees progress in tight, fragmented heaps. *)

open Repro_heap
open Repro_engine
module Vec = Repro_util.Vec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh_heap ?(heap_kb = 1024) () =
  Heap.create (Heap_config.make ~heap_bytes:(heap_kb * 1024) ())

(* --- Reserve -------------------------------------------------------------- *)

let test_reserve_roundtrip () =
  let heap = fresh_heap () in
  let total = Heap.available_blocks heap in
  Heap.ensure_reserve heap;
  let withheld = Vec.length heap.reserve in
  check "reserve taken" true (withheld >= 1);
  check_int "blocks withheld from allocation" (total - withheld)
    (Heap.available_blocks heap);
  Vec.iter
    (fun b -> check "reserve state" true (Blocks.state heap.blocks b = Blocks.In_use))
    heap.reserve;
  Heap.release_reserve heap;
  check_int "all returned" total (Heap.available_blocks heap);
  check "reserve empty" true (Vec.is_empty heap.reserve)

let test_reserve_idempotent () =
  let heap = fresh_heap () in
  Heap.ensure_reserve heap;
  let first = Vec.length heap.reserve in
  Heap.ensure_reserve heap;
  check_int "stable size" first (Vec.length heap.reserve)

let test_reserve_scales_down () =
  (* A 4-block heap gets no reserve rather than losing half its space. *)
  let heap = Heap.create (Heap_config.make ~heap_bytes:(4 * 32 * 1024) ()) in
  Heap.ensure_reserve heap;
  check "no reserve on degenerate heaps" true (Vec.is_empty heap.reserve);
  (* A large heap reserves about 1/16. *)
  let big = fresh_heap ~heap_kb:(4 * 1024) () in
  Heap.ensure_reserve big;
  check_int "1/16 of 128 blocks" 8 (Vec.length big.reserve)

let test_reserve_survives_partial_exhaustion () =
  let heap = fresh_heap ~heap_kb:256 () in
  Heap.ensure_reserve heap;
  (* Drain the entire free list. *)
  while Free_lists.acquire_free heap.free <> None do () done;
  Heap.ensure_reserve heap;
  check "reserve kept despite empty free list" true (Vec.length heap.reserve >= 1)

(* --- Compaction ------------------------------------------------------------- *)

(* Build a pathologically fragmented heap: objects pinned live, spread so
   every block is partially occupied, singleton holes everywhere. *)
let fragment heap ~keep_every =
  let a = Heap.make_allocator heap in
  let kept = ref [] in
  let i = ref 0 in
  (try
     while true do
       let obj = Heap.alloc_fast heap a ~size:176 ~nfields:1 in
       if obj.id = Obj_model.null then raise Exit;
       incr i;
       if !i mod keep_every = 0 then begin
         Heap.pin heap obj;
         kept := obj :: !kept
       end
       else Heap.free_object heap obj
     done
   with Exit -> ());
  Heap.retire_all_allocators heap;
  Compaction.reclassify heap;
  !kept

let test_reclassify () =
  let heap = fresh_heap ~heap_kb:256 () in
  let kept = fragment heap ~keep_every:8 in
  check "live objects kept" true (List.length kept > 50);
  (* After reclassification the states match the RC table. *)
  let cfg = heap.cfg in
  for b = 0 to Heap_config.blocks cfg - 1 do
    match Blocks.state heap.blocks b with
    | Blocks.Free ->
      check "free means zero rc" true (Rc_table.block_is_free heap.rc cfg b)
    | Blocks.Recyclable ->
      check "recyclable has free lines" true
        (Rc_table.free_lines_in_block heap.rc cfg b > 0)
    | Blocks.In_use | Blocks.Owned | Blocks.Los_backing -> ()
  done

let test_compact_consolidates () =
  let heap = fresh_heap ~heap_kb:256 () in
  (* Withhold a couple of blocks (the emergency caller's reserve), fill
     and fragment the rest, then hand the reserve to the compactor. *)
  Heap.ensure_reserve heap;
  let kept = fragment heap ~keep_every:6 in
  Heap.release_reserve heap;
  let free_before = Heap.available_blocks heap in
  let live_before = Heap.live_bytes heap in
  let gc_alloc = Heap.make_allocator heap in
  let tc = Trace_cost.create () in
  let copied =
    Compaction.compact heap tc ~cost:Cost_model.default ~threads:4 ~gc_alloc
  in
  check "copied something" true (copied > 0);
  check "gained whole free blocks" true (Heap.available_blocks heap > free_before);
  check_int "no object lost or duplicated" live_before (Heap.live_bytes heap);
  List.iter
    (fun (obj : Obj_model.t) ->
      check "survivor registered" true (Obj_model.Registry.mem heap.registry obj.id);
      check "survivor addressable" true (Addr.valid heap.cfg (Obj_model.addr obj));
      check "rc preserved" true (Heap.rc_of heap obj > 0))
    kept;
  check "compaction cost accounted" true (Trace_cost.cpu_ns tc > 0.0)

let test_compact_no_work_when_empty () =
  let heap = fresh_heap ~heap_kb:256 () in
  let gc_alloc = Heap.make_allocator heap in
  let tc = Trace_cost.create () in
  let copied =
    Compaction.compact heap tc ~cost:Cost_model.default ~threads:4 ~gc_alloc
  in
  check_int "nothing to copy" 0 copied

let test_compact_respects_reserve () =
  let heap = fresh_heap ~heap_kb:256 () in
  ignore (fragment heap ~keep_every:6);
  Heap.ensure_reserve heap;
  let reserve = heap.reserve in
  let gc_alloc = Heap.make_allocator heap in
  let tc = Trace_cost.create () in
  ignore (Compaction.compact heap tc ~cost:Cost_model.default ~threads:4 ~gc_alloc);
  Vec.iter
    (fun b ->
      check "reserve block untouched" true
        (Blocks.state heap.blocks b = Blocks.In_use
        && Rc_table.block_is_free heap.rc heap.cfg b))
    reserve

let test_compact_stops_with_headroom () =
  (* Compaction must not churn a heap that already has ample free space:
     it stops once a quarter of the blocks are free. *)
  let heap = fresh_heap ~heap_kb:512 () in
  let a = Heap.make_allocator heap in
  for _ = 1 to 20 do
    let obj = Heap.alloc_fast heap a ~size:64 ~nfields:0 in
    if obj.id <> Obj_model.null then Heap.pin heap obj
  done;
  Heap.retire_all_allocators heap;
  Compaction.reclassify heap;
  let gc_alloc = Heap.make_allocator heap in
  let tc = Trace_cost.create () in
  let copied =
    Compaction.compact heap tc ~cost:Cost_model.default ~threads:4 ~gc_alloc
  in
  check_int "already-roomy heap untouched" 0 copied

let compact_preserves_live_prop =
  QCheck.Test.make ~name:"compaction preserves every live object" ~count:25
    QCheck.(int_range 2 12)
    (fun keep_every ->
      let heap = fresh_heap ~heap_kb:256 () in
      Heap.ensure_reserve heap;
      let kept = fragment heap ~keep_every in
      Heap.release_reserve heap;
      let ids = List.map (fun (o : Obj_model.t) -> o.id) kept in
      let gc_alloc = Heap.make_allocator heap in
      let tc = Trace_cost.create () in
      ignore
        (Compaction.compact heap tc ~cost:Cost_model.default ~threads:4 ~gc_alloc);
      List.for_all (fun id -> Obj_model.Registry.mem heap.registry id) ids)

let suite =
  [ ( "compaction:reserve",
      [ Alcotest.test_case "roundtrip" `Quick test_reserve_roundtrip;
        Alcotest.test_case "idempotent" `Quick test_reserve_idempotent;
        Alcotest.test_case "scales down" `Quick test_reserve_scales_down;
        Alcotest.test_case "partial exhaustion" `Quick
          test_reserve_survives_partial_exhaustion ] );
    ( "compaction:compact",
      [ Alcotest.test_case "reclassify" `Quick test_reclassify;
        Alcotest.test_case "consolidates" `Quick test_compact_consolidates;
        Alcotest.test_case "empty heap" `Quick test_compact_no_work_when_empty;
        Alcotest.test_case "respects reserve" `Quick test_compact_respects_reserve;
        Alcotest.test_case "stops with headroom" `Quick test_compact_stops_with_headroom ]
      @ [ QCheck_alcotest.to_alcotest compact_preserves_live_prop ] ) ]
