(* Unit and property tests for the Immix heap substrate. *)

open Repro_heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(heap_kb = 512) ?(rc_bits = 2) () =
  Heap_config.make ~heap_bytes:(heap_kb * 1024) ~rc_bits ()

(* --- Heap_config ---------------------------------------------------------- *)

let test_config_defaults () =
  let c = cfg () in
  check_int "block" 32768 c.block_bytes;
  check_int "line" 256 c.line_bytes;
  check_int "granule" 16 c.granule_bytes;
  check_int "rc bits" 2 c.rc_bits;
  check_int "los threshold" 16384 c.los_threshold;
  check_int "blocks" 16 (Heap_config.blocks c);
  check_int "lines/block" 128 (Heap_config.lines_per_block c);
  check_int "granules/line" 16 (Heap_config.granules_per_line c);
  check_int "stuck" 3 (Heap_config.stuck_count c)

let test_config_rounds_heap () =
  let c = Heap_config.make ~heap_bytes:(33 * 1024) () in
  check_int "rounded to block" 65536 c.heap_bytes

let test_config_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "non-pow2 block" true
    (raises (fun () -> Heap_config.make ~heap_bytes:65536 ~block_bytes:33000 ()));
  check "bad rc bits" true
    (raises (fun () -> Heap_config.make ~heap_bytes:65536 ~rc_bits:3 ()));
  check "line > block" true
    (raises (fun () ->
         Heap_config.make ~heap_bytes:65536 ~block_bytes:1024 ~line_bytes:2048 ()));
  check "tiny heap" true (raises (fun () -> Heap_config.make ~heap_bytes:1024 ()))

(* --- Addr ------------------------------------------------------------------ *)

let test_addr_arithmetic () =
  let c = cfg () in
  check_int "block of 0" 0 (Addr.block_of c 0);
  check_int "block of 32768" 1 (Addr.block_of c 32768);
  check_int "block start" 65536 (Addr.block_start c 2);
  check_int "line of 256" 1 (Addr.line_of c 256);
  check_int "line in block wraps" 0 (Addr.line_in_block c 32768);
  check_int "granule of 31" 1 (Addr.granule_of c 31);
  check "granule aligned" true (Addr.is_granule_aligned c 32);
  check "granule unaligned" false (Addr.is_granule_aligned c 33);
  check "valid" true (Addr.valid c 0);
  check "invalid" false (Addr.valid c (512 * 1024))

let test_addr_lines_covered () =
  let c = cfg () in
  let lo, hi = Addr.lines_covered c ~addr:0 ~size:256 in
  check_int "single line lo" 0 lo;
  check_int "single line hi" 0 hi;
  let lo, hi = Addr.lines_covered c ~addr:128 ~size:256 in
  check_int "straddle lo" 0 lo;
  check_int "straddle hi" 1 hi

(* --- Rc_table --------------------------------------------------------------- *)

let test_rc_inc_dec () =
  let c = cfg () in
  let t = Rc_table.create c in
  check_int "initial zero" 0 (Rc_table.get t c 0);
  (match Rc_table.inc t c 0 with
  | `Became 1 -> ()
  | _ -> Alcotest.fail "expected Became 1");
  (match Rc_table.inc t c 0 with
  | `Became 2 -> ()
  | _ -> Alcotest.fail "expected Became 2");
  (match Rc_table.dec t c 0 with
  | `Became 1 -> ()
  | _ -> Alcotest.fail "expected Became 1");
  (match Rc_table.dec t c 0 with
  | `Became 0 -> ()
  | _ -> Alcotest.fail "expected Became 0");
  (match Rc_table.dec t c 0 with
  | `Underflow -> ()
  | _ -> Alcotest.fail "expected Underflow")

let test_rc_stick () =
  let c = cfg () in
  let t = Rc_table.create c in
  ignore (Rc_table.inc t c 16);
  ignore (Rc_table.inc t c 16);
  (* Third increment reaches 3 = stuck. *)
  (match Rc_table.inc t c 16 with
  | `Stuck -> ()
  | `Became n -> Alcotest.failf "expected Stuck, got Became %d" n);
  check_int "stuck value" 3 (Rc_table.get t c 16);
  (match Rc_table.dec t c 16 with
  | `Stuck -> ()
  | _ -> Alcotest.fail "stuck counts never decremented");
  (match Rc_table.inc t c 16 with
  | `Stuck -> ()
  | _ -> Alcotest.fail "stuck counts never incremented")

let test_rc_neighbours_independent () =
  let c = cfg () in
  let t = Rc_table.create c in
  (* Counts pack 4-per-byte at 2 bits: neighbours must not interfere. *)
  ignore (Rc_table.inc t c 0);
  ignore (Rc_table.inc t c 16);
  ignore (Rc_table.inc t c 16);
  ignore (Rc_table.inc t c 32);
  check_int "g0" 1 (Rc_table.get t c 0);
  check_int "g1" 2 (Rc_table.get t c 16);
  check_int "g2" 1 (Rc_table.get t c 32);
  check_int "g3" 0 (Rc_table.get t c 48)

let test_rc_wider_bits () =
  let c = cfg ~rc_bits:8 () in
  let t = Rc_table.create c in
  for _ = 1 to 254 do
    ignore (Rc_table.inc t c 0)
  done;
  check_int "count 254" 254 (Rc_table.get t c 0);
  (match Rc_table.inc t c 0 with
  | `Stuck -> ()
  | _ -> Alcotest.fail "sticks at 255")

let test_rc_clear_range () =
  let c = cfg () in
  let t = Rc_table.create c in
  ignore (Rc_table.inc t c 0);
  Rc_table.set t c 256 3;
  Rc_table.clear_range t c ~addr:0 ~size:512;
  check_int "cleared header" 0 (Rc_table.get t c 0);
  check_int "cleared marker" 0 (Rc_table.get t c 256);
  check_int "beyond untouched" 0 (Rc_table.get t c 512)

(* [clear_range] is one pass with [set]'s bookkeeping inlined. It must
   leave the table exactly as the per-granule [set _ 0] loop it replaced:
   every count, and every occupancy answer. Tables hold random counts (1,
   stuck, and others); the range falls inside one line (kind 0), across
   lines of one block (kind 1) or across blocks (kind 2). *)
let rc_clear_range_matches_set_loop_prop =
  QCheck.Test.make ~name:"rc clear_range equals a per-granule set-0 loop"
    ~count:300
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 2) bool)
    (fun (seed, kind, wide) ->
      let c = cfg ~heap_kb:128 ~rc_bits:(if wide then 8 else 2) () in
      let prng = Repro_util.Prng.create seed in
      let draw n = Repro_util.Prng.int prng n in
      let stuck = Heap_config.stuck_count c in
      let gb = c.granule_bytes and lb = c.line_bytes and bb = c.block_bytes in
      let granules = Heap_config.total_granules c in
      let fast = Rc_table.create c and slow = Rc_table.create c in
      for g = 0 to granules - 1 do
        if draw 3 = 0 then begin
          let v = match draw 3 with 0 -> 1 | 1 -> stuck | _ -> 1 + draw stuck in
          Rc_table.set fast c (g * gb) v;
          Rc_table.set slow c (g * gb) v
        end
      done;
      let blocks = Heap_config.blocks c and lpb = Heap_config.lines_per_block c in
      let granule_in ~lo ~hi = lo + (draw ((hi - lo) / gb) * gb) in
      let addr, last =
        match kind with
        | 0 ->
          let line = draw (Heap_config.total_lines c) * lb in
          let addr = granule_in ~lo:line ~hi:(line + lb) in
          (addr, addr + draw (line + lb - addr))
        | 1 ->
          let block = draw blocks * bb in
          let line = block + (draw (lpb - 1) * lb) in
          let addr = granule_in ~lo:line ~hi:(line + lb) in
          (addr, line + lb + draw (block + bb - line - lb))
        | _ ->
          let block = draw (blocks - 1) * bb in
          let addr = granule_in ~lo:block ~hi:(block + bb) in
          (addr, block + bb + draw (c.heap_bytes - block - bb))
      in
      let size = last - addr + 1 in
      Rc_table.clear_range fast c ~addr ~size;
      let a = ref addr in
      while !a <= last do
        Rc_table.set slow c !a 0;
        a := !a + gb
      done;
      let all n f = List.for_all f (List.init n Fun.id) in
      all granules (fun g -> Rc_table.get fast c (g * gb) = Rc_table.get slow c (g * gb))
      && all (Heap_config.total_lines c) (fun l ->
             Rc_table.line_is_free fast c l = Rc_table.line_is_free slow c l)
      && all blocks (fun b ->
             Rc_table.free_lines_in_block fast c b = Rc_table.free_lines_in_block slow c b
             && Rc_table.live_granules_in_block fast c b
                = Rc_table.live_granules_in_block slow c b
             && Rc_table.block_is_free fast c b = Rc_table.block_is_free slow c b))

let test_rc_straddle () =
  let c = cfg () in
  let t = Rc_table.create c in
  (* A 700-byte object at line 0 covers lines 0..2: marker on line 1 only
     (trailing lines except the last, §3.1). *)
  Rc_table.mark_straddle t c ~addr:0 ~size:700;
  check_int "line 1 marked" 3 (Rc_table.get t c 256);
  check_int "line 2 (last) unmarked" 0 (Rc_table.get t c 512);
  check "line 1 not free" false (Rc_table.line_is_free t c 1);
  check "line 2 free" true (Rc_table.line_is_free t c 2)

let test_rc_line_block_free () =
  let c = cfg () in
  let t = Rc_table.create c in
  check "line free" true (Rc_table.line_is_free t c 0);
  check "block free" true (Rc_table.block_is_free t c 0);
  ignore (Rc_table.inc t c 304);
  check "line 1 used" false (Rc_table.line_is_free t c 1);
  check "block not free" false (Rc_table.block_is_free t c 0);
  check_int "127 free lines" 127 (Rc_table.free_lines_in_block t c 0);
  check_int "1 live granule" 1 (Rc_table.live_granules_in_block t c 0)

let rc_inc_dec_roundtrip_prop =
  QCheck.Test.make ~name:"rc inc^n dec^n returns to zero (below stuck)" ~count:200
    QCheck.(int_range 0 2)
    (fun n ->
      let c = cfg () in
      let t = Rc_table.create c in
      for _ = 1 to n do
        ignore (Rc_table.inc t c 64)
      done;
      for _ = 1 to n do
        ignore (Rc_table.dec t c 64)
      done;
      Rc_table.get t c 64 = 0)

(* --- Mark_bitset ------------------------------------------------------------ *)

let test_marks () =
  let m = Mark_bitset.create () in
  check "initially unmarked" false (Mark_bitset.marked m 5);
  Mark_bitset.mark m 5;
  check "marked" true (Mark_bitset.marked m 5);
  check "neighbour unmarked" false (Mark_bitset.marked m 6);
  Mark_bitset.unmark m 5;
  check "unmarked" false (Mark_bitset.marked m 5)

let test_marks_growth () =
  let m = Mark_bitset.create () in
  Mark_bitset.mark m 1_000_000;
  check "grown" true (Mark_bitset.marked m 1_000_000);
  check "others clear" false (Mark_bitset.marked m 999_999)

let test_marks_clear () =
  let m = Mark_bitset.create () in
  Mark_bitset.mark m 1;
  Mark_bitset.mark m 100_000;
  Mark_bitset.clear m;
  check "cleared small" false (Mark_bitset.marked m 1);
  check "cleared large" false (Mark_bitset.marked m 100_000)

(* --- Reuse_table ------------------------------------------------------------ *)

let test_reuse () =
  let c = cfg () in
  let t = Reuse_table.create c in
  check_int "initial" 0 (Reuse_table.get t 3);
  Reuse_table.bump t 3;
  Reuse_table.bump t 3;
  check_int "bumped" 2 (Reuse_table.get t 3);
  Reuse_table.bump_range t ~first:5 ~last:7;
  check_int "range" 1 (Reuse_table.get t 6);
  Reuse_table.reset_all t;
  check_int "reset" 0 (Reuse_table.get t 3)

(* --- Obj_model -------------------------------------------------------------- *)

let test_registry_basics () =
  let reg = Obj_model.Registry.create () in
  let o = Obj_model.Registry.register reg ~size:64 ~nfields:4 ~addr:0 ~birth_epoch:1 in
  check_int "id starts at 1" 1 o.id;
  check_int "fields null" Obj_model.null (Obj_model.field o 0);
  check "mem" true (Obj_model.Registry.mem reg o.id);
  check_int "live bytes" 64 (Obj_model.Registry.live_bytes reg);
  Obj_model.Registry.free reg o;
  check "freed" false (Obj_model.Registry.mem reg o.id);
  check "is_freed" true (Obj_model.is_freed o);
  check_int "bytes back" 0 (Obj_model.Registry.live_bytes reg);
  (* Double free is idempotent. *)
  Obj_model.Registry.free reg o;
  check_int "still zero" 0 (Obj_model.Registry.live_bytes reg)

(* The bounds check's raise lives in a cold helper; its text is part of
   the contract. A freed handle never reaches the check. *)
let test_field_bounds () =
  let reg = Obj_model.Registry.create () in
  let o = Obj_model.Registry.register reg ~size:64 ~nfields:4 ~addr:0 ~birth_epoch:0 in
  let oob = Invalid_argument "Obj_model: field index out of bounds" in
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "field %d" i) oob (fun () ->
          ignore (Obj_model.field o i));
      Alcotest.check_raises (Printf.sprintf "set_field %d" i) oob (fun () ->
          Obj_model.set_field o i 1))
    [ -1; 4 ];
  Obj_model.set_field o 3 7;
  Obj_model.Registry.free reg o;
  List.iter
    (fun i ->
      check_int (Printf.sprintf "freed field %d" i) Obj_model.null (Obj_model.field o i);
      Obj_model.set_field o i 1)
    [ -1; 3; 4 ];
  check_int "freed field stays null" Obj_model.null (Obj_model.field o 3)

let test_logged_bits () =
  let reg = Obj_model.Registry.create () in
  let o = Obj_model.Registry.register reg ~size:64 ~nfields:10 ~addr:0 ~birth_epoch:0 in
  (* New objects are born all-logged (barrier fast path). *)
  check "born logged" true (Obj_model.field_logged o 0);
  check "born logged last" true (Obj_model.field_logged o 9);
  Obj_model.set_field_logged o 3 false;
  check "cleared" false (Obj_model.field_logged o 3);
  check "neighbour intact" true (Obj_model.field_logged o 2);
  Obj_model.set_all_logged o false;
  check "all cleared" false (Obj_model.field_logged o 9);
  Obj_model.set_all_logged o true;
  check "all set" true (Obj_model.field_logged o 0)

let test_reachability_oracle () =
  let reg = Obj_model.Registry.create () in
  let mk () = Obj_model.Registry.register reg ~size:32 ~nfields:2 ~addr:0 ~birth_epoch:0 in
  let a = mk () and b = mk () and c = mk () and d = mk () in
  Obj_model.set_field a 0 b.id;
  Obj_model.set_field b 0 c.id;
  Obj_model.set_field c 0 a.id;
  (* d is unreachable; a->b->c->a is a cycle from the root. *)
  let reach = Obj_model.Registry.reachable_from reg [ a.id ] in
  check "a" true (Mark_bitset.marked reach a.id);
  check "b" true (Mark_bitset.marked reach b.id);
  check "c (cycle closed)" true (Mark_bitset.marked reach c.id);
  check "d unreachable" false (Mark_bitset.marked reach d.id);
  let n = ref 0 in
  Mark_bitset.iter_marked reach (fun _ -> incr n);
  check_int "count" 3 !n

(* --- Blocks / Free_lists ------------------------------------------------------ *)

let test_blocks_state () =
  let c = cfg () in
  let b = Blocks.create c in
  check "initial free" true (Blocks.state b 0 = Blocks.Free);
  Blocks.set_state b 0 Blocks.In_use;
  check "set" true (Blocks.state b 0 = Blocks.In_use);
  check_int "count free" 15 (Blocks.count_state b Blocks.Free);
  Blocks.set_young b 1 true;
  check "young" true (Blocks.young b 1);
  Blocks.set_target b 2 true;
  check "target" true (Blocks.target b 2);
  check_int "total" 16 (Blocks.total b)

(* [count_state] reads counters kept by [set_state]; after every
   transition each count must equal a full scan, and the five states
   must partition the blocks. *)
let blocks_count_matches_scan_prop =
  let all = Blocks.[ Free; Recyclable; Owned; In_use; Los_backing ] in
  QCheck.Test.make ~name:"block-state counts equal a full scan" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 200) (pair (int_range 0 15) (int_range 0 4)))
    (fun moves ->
      let b = Blocks.create (cfg ()) in
      List.for_all
        (fun (blk, st) ->
          Blocks.set_state b blk (List.nth all st);
          let scan s =
            let n = ref 0 in
            for i = 0 to Blocks.total b - 1 do
              if Blocks.state b i = s then incr n
            done;
            !n
          in
          List.for_all (fun s -> Blocks.count_state b s = scan s) all
          && List.fold_left (fun acc s -> acc + Blocks.count_state b s) 0 all
             = Blocks.total b)
        moves)

let test_blocks_residents () =
  let c = cfg () in
  let b = Blocks.create c in
  Blocks.add_resident b 0 10;
  Blocks.add_resident b 0 11;
  Blocks.add_resident b 0 12;
  Blocks.compact b 0 ~live:(fun id -> id <> 11);
  let ids = Repro_util.Vec.to_list (Blocks.residents b 0) in
  check_int "compact kept 2" 2 (List.length ids);
  check "10 kept" true (List.mem 10 ids);
  check "11 dropped" false (List.mem 11 ids)

let test_free_lists () =
  let f = Free_lists.create () in
  Free_lists.release_free f 1;
  Free_lists.release_recyclable f 2;
  check_int "free count" 1 (Free_lists.free_count f);
  check_int "recyc count" 1 (Free_lists.recyclable_count f);
  check_int "acquire recyc" 2 (Option.get (Free_lists.acquire_recyclable f));
  check_int "acquire free" 1 (Option.get (Free_lists.acquire_free f));
  check "exhausted" true (Free_lists.acquire_free f = None)

(* --- Bump_allocator ------------------------------------------------------------ *)

let fresh_heap ?(heap_kb = 512) () = Heap.create (cfg ~heap_kb ())

(* A bump allocation the test needs to succeed. *)
let bump a ~size =
  let addr = Bump_allocator.alloc_addr a ~size in
  if addr < 0 then Alcotest.failf "bump allocation of %d bytes failed" size;
  addr

(* An allocation the test needs to succeed. *)
let alloc heap a ~size ~nfields =
  let obj = Heap.alloc_fast heap a ~size ~nfields in
  if obj.id = Obj_model.null then Alcotest.failf "alloc of %d bytes failed" size;
  obj

let test_alloc_basic () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let addr = bump a ~size:64 in
  check "granule aligned" true (Addr.is_granule_aligned heap.cfg addr);
  check_int "bump" (addr + 64) (bump a ~size:64)

let test_alloc_receipt () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  ignore (bump a ~size:64);
  let r = Bump_allocator.receipt a in
  check "zeroed a block" true (r.bytes_zeroed >= 32768);
  check_int "acquired one block" 1 r.blocks_acquired;
  Bump_allocator.reset_receipt a;
  check_int "reset" 0 (Bump_allocator.receipt a).blocks_acquired

let test_alloc_no_overlap () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let prng = Repro_util.Prng.create 3 in
  let spans = ref [] in
  (try
     while true do
       let size = 16 * (1 + Repro_util.Prng.int prng 64) in
       let addr = Bump_allocator.alloc_addr a ~size in
       if addr < 0 then raise Exit;
       spans := (addr, size) :: !spans
     done
   with Exit -> ());
  check "allocated plenty" true (List.length !spans > 500);
  let sorted = List.sort compare !spans in
  let rec no_overlap = function
    | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && no_overlap rest
    | [ _ ] | [] -> true
  in
  check "no overlaps" true (no_overlap sorted)

let test_alloc_young_flag () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let addr = bump a ~size:64 in
  check "fresh block young" true (Blocks.young heap.blocks (Addr.block_of heap.cfg addr));
  Bump_allocator.retire_all a

let test_alloc_skips_used_lines () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  (* Occupy line 2 of block 0 directly in the RC table, then release the
     block as recyclable: the allocator must skip it and — conservatively
     — line 3 as well. *)
  Rc_table.set heap.rc heap.cfg (2 * 256) 3;
  Blocks.set_state heap.blocks 0 Blocks.Recyclable;
  (* Drain the free list so only the recyclable block is available. *)
  while Free_lists.acquire_free heap.free <> None do
    ()
  done;
  Free_lists.release_recyclable heap.free 0;
  check_int "starts at line 0" 0 (bump a ~size:64);
  (* Fill lines 0-1 (512 bytes total). *)
  check_int "fills to line 2" 64 (bump a ~size:448);
  (* Next allocation cannot use line 2 (occupied) nor line 3
     (conservative skip): it must land on line 4. *)
  check_int "skips to line 4" (4 * 256) (bump a ~size:64)

let test_alloc_exhaustion () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(64 * 1024) ()) in
  let a = Heap.make_allocator heap in
  let count = ref 0 in
  (try
     while true do
       if Bump_allocator.alloc_addr a ~size:1024 < 0 then raise Exit;
       incr count
     done
   with Exit -> ());
  check_int "filled two blocks" 64 !count

(* --- Heap facade ----------------------------------------------------------------- *)

let test_heap_alloc_registers () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let obj = alloc heap a ~size:60 ~nfields:2 in
  check_int "size aligned" 64 obj.size;
  check "registered" true (Obj_model.Registry.mem heap.registry obj.id);
  check "touched" true (Array.mem (Addr.block_of heap.cfg (Obj_model.addr obj)) (Heap.touched_blocks heap));
  check_int "rc starts zero" 0 (Heap.rc_of heap obj)

let test_heap_rc_roundtrip () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let obj = alloc heap a ~size:64 ~nfields:2 in
  (match Heap.rc_inc heap obj with
  | `Became 1 -> ()
  | _ -> Alcotest.fail "inc");
  check_int "rc 1" 1 (Heap.rc_of heap obj);
  (match Heap.rc_dec heap obj with
  | `Became 0 -> ()
  | _ -> Alcotest.fail "dec");
  Heap.free_object heap obj;
  check "gone" false (Obj_model.Registry.mem heap.registry obj.id)

let test_heap_straddle_on_first_inc () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let obj = alloc heap a ~size:700 ~nfields:1 in
  ignore (Heap.rc_inc heap obj);
  let mid_line = Addr.line_of heap.cfg (Obj_model.addr obj) + 1 in
  check "trailing line pinned" false (Rc_table.line_is_free heap.rc heap.cfg mid_line);
  Heap.free_object heap obj;
  check "trailing line released" true (Rc_table.line_is_free heap.rc heap.cfg mid_line)

let test_heap_los () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let big = alloc heap a ~size:40_000 ~nfields:2 in
  check "is los" true (Heap.is_los heap big);
  check "block aligned" true ((Obj_model.addr big) mod heap.cfg.block_bytes = 0);
  let backing = Addr.block_of heap.cfg (Obj_model.addr big) in
  check "backing state" true (Blocks.state heap.blocks backing = Blocks.Los_backing);
  let free_before = Heap.available_blocks heap in
  Heap.free_object heap big;
  check "blocks returned" true (Heap.available_blocks heap = free_before + 2);
  check "backing freed" true (Blocks.state heap.blocks backing = Blocks.Free)

let test_heap_los_exhaustion () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(64 * 1024) ()) in
  let a = Heap.make_allocator heap in
  (* Two blocks total: a 3-block large object cannot fit. *)
  check "too big" true
    ((Heap.alloc_fast heap a ~size:70_000 ~nfields:0).id = Obj_model.null)

let test_heap_evacuate () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let gc = Heap.make_allocator heap in
  let obj = alloc heap a ~size:64 ~nfields:1 in
  ignore (Heap.rc_inc heap obj);
  ignore (Heap.rc_inc heap obj);
  let old_addr = (Obj_model.addr obj) in
  check "evacuated" true (Heap.evacuate heap gc obj);
  check "moved" true ((Obj_model.addr obj) <> old_addr);
  check_int "rc preserved" 2 (Heap.rc_of heap obj);
  check_int "old slot cleared" 0 (Rc_table.get heap.rc heap.cfg old_addr)

let test_heap_evacuate_los_refused () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let gc = Heap.make_allocator heap in
  let big = alloc heap a ~size:40_000 ~nfields:0 in
  check "los not moved" false (Heap.evacuate heap gc big)

let test_heap_rc_sweep_block () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let dead = alloc heap a ~size:64 ~nfields:0 in
  let live = alloc heap a ~size:64 ~nfields:0 in
  ignore (Heap.rc_inc heap live);
  let b = Addr.block_of heap.cfg (Obj_model.addr dead) in
  Heap.retire_all_allocators heap;
  (match Heap.rc_sweep_block heap b with
  | `Recyclable n, freed ->
    check "dead freed" true (freed = 64);
    check "free lines" true (n > 0)
  | (`Freed | `Full), _ -> Alcotest.fail "expected recyclable");
  check "dead unregistered" false (Obj_model.Registry.mem heap.registry dead.id);
  check "live kept" true (Obj_model.Registry.mem heap.registry live.id)

let test_heap_rc_sweep_block_all_dead () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let o1 = alloc heap a ~size:64 ~nfields:0 in
  let _o2 = alloc heap a ~size:64 ~nfields:0 in
  let b = Addr.block_of heap.cfg (Obj_model.addr o1) in
  Heap.retire_all_allocators heap;
  (match Heap.rc_sweep_block heap b with
  | `Freed, freed -> check_int "all freed" 128 freed
  | (`Recyclable _ | `Full), _ -> Alcotest.fail "expected freed");
  check "state free" true (Blocks.state heap.blocks b = Blocks.Free)

let test_heap_pin () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  let obj = alloc heap a ~size:700 ~nfields:0 in
  Heap.pin heap obj;
  check "stuck" true (Heap.rc_is_stuck heap obj);
  let l0 = Addr.line_of heap.cfg (Obj_model.addr obj) in
  check "straddle pinned" false (Rc_table.line_is_free heap.rc heap.cfg (l0 + 1))

let test_heap_rebuild_free_lists () =
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  ignore (alloc heap a ~size:64 ~nfields:0);
  Heap.retire_all_allocators heap;
  Heap.rebuild_free_lists heap;
  (* One block In_use (retired), the rest free. *)
  check_int "free blocks" 15 (Free_lists.free_count heap.free)

let test_alloc_overflow_block () =
  (* A medium object that does not fit the current hole goes to a
     dedicated overflow block instead of wasting the remaining lines. *)
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  (* Occupy the current block so only a 2-line hole remains ahead. *)
  let first = bump a ~size:64 in
  let b0 = Addr.block_of heap.cfg first in
  (* Fill all but the last two lines. *)
  let fill = (Heap_config.lines_per_block heap.cfg - 2) * 256 - 64 in
  let filler = bump a ~size:heap.cfg.granule_bytes in
  ignore filler;
  let rec gobble remaining =
    if remaining >= 8192 then begin
      ignore (bump a ~size:8192);
      gobble (remaining - 8192)
    end
    else if remaining >= 16 then begin
      ignore (bump a ~size:(remaining - (remaining mod 16)));
      gobble (remaining mod 16)
    end
  in
  gobble (fill - 16);
  (* Now a 1 KB object cannot fit the 2-line remainder: dynamic
     overflow must place it in a different (fresh) block. *)
  let medium = bump a ~size:1024 in
  check "overflow block used" true (Addr.block_of heap.cfg medium <> b0);
  (* A small object still lands in the original hole. *)
  let small = bump a ~size:64 in
  check_int "small continues in block" b0 (Addr.block_of heap.cfg small)

let rc_packed_independence_prop =
  QCheck.Test.make ~name:"rc entries are independent across random granules" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 0 200))
    (fun granules ->
      let c = cfg () in
      let t = Rc_table.create c in
      let distinct = List.sort_uniq compare granules in
      List.iter (fun g -> ignore (Rc_table.inc t c (16 * g))) distinct;
      List.for_all (fun g -> Rc_table.get t c (16 * g) = 1) distinct
      &&
      (* Neighbours of every touched granule stay zero. *)
      List.for_all
        (fun g ->
          List.mem (g + 1) distinct || Rc_table.get t c (16 * (g + 1)) = 0)
        distinct)

let test_touched_blocks_ascending () =
  (* touched_blocks is a bitset scan, so the array is ascending with no
     duplicates by construction — the young sweep and clear loops rely on
     a canonical order. Regression-guard the contract. *)
  let heap = fresh_heap () in
  let a = Heap.make_allocator heap in
  for _ = 1 to 200 do
    ignore (alloc heap a ~size:512 ~nfields:0)
  done;
  let tb = Heap.touched_blocks heap in
  check "several blocks touched" true (Array.length tb > 2);
  check "ascending, no duplicates" true
    (List.sort_uniq compare (Array.to_list tb) = Array.to_list tb);
  Array.iter
    (fun b -> check "block_touched agrees" true (Heap.block_touched heap b))
    tb;
  Heap.clear_touched heap;
  check "cleared" true (Heap.touched_blocks heap = [||])

let logged_bits o = Array.init (Obj_model.nfields o) (Obj_model.field_logged o)

(* Every registration gets its own birth epoch and logged bits are
   cleared at random while objects live, so a stale handle that resolved
   through its recycled slot would read the new tenant's values. *)
let recycled_slots_never_alias_prop =
  QCheck.Test.make
    ~name:"recycled slots never alias live objects; stale handles stay freed"
    ~count:60 ~long_factor:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let reg = Obj_model.Registry.create () in
      let prng = Repro_util.Prng.create seed in
      let live = ref [] in
      (* (handle, field count, birth epoch, logged bits read at free) *)
      let stale = ref [] in
      let max_id = ref 0 in
      let ok = ref true in
      for step = 1 to 400 do
        if Repro_util.Prng.bool prng 0.55 || !live = [] then begin
          let nfields = Repro_util.Prng.int prng 70 in
          let o =
            Obj_model.Registry.register reg ~size:64 ~nfields ~addr:128
              ~birth_epoch:step
          in
          (* External ids are strictly monotonic even while slots recycle. *)
          if o.Obj_model.id <= !max_id then ok := false;
          max_id := o.Obj_model.id;
          (match !live with
          | (tid, _) :: _ when nfields > 0 -> Obj_model.set_field o 0 tid
          | _ -> ());
          if nfields > 0 && Repro_util.Prng.bool prng 0.5 then
            Obj_model.set_field_logged o (Repro_util.Prng.int prng nfields) false;
          if Repro_util.Prng.bool prng 0.2 then Obj_model.set_all_logged o false;
          live := (o.Obj_model.id, o) :: !live
        end
        else begin
          let k = Repro_util.Prng.int prng (List.length !live) in
          let id, o = List.nth !live k in
          let nfields = Obj_model.nfields o and birth = Obj_model.birth_epoch o in
          Obj_model.Registry.free reg o;
          live := List.filter (fun (i, _) -> i <> id) !live;
          stale := (o, nfields, birth, logged_bits o) :: !stale
        end
      done;
      (* Stale handles read as freed forever, even after slot reuse, and
         their metadata is frozen at free rather than the slot's. *)
      let frozen (o, nfields, birth, bits) =
        Obj_model.nfields o = nfields
        && Obj_model.birth_epoch o = birth
        && logged_bits o = bits
      in
      List.iter
        (fun ((o : Obj_model.t), _, _, _) ->
          if not (Obj_model.is_freed o) then ok := false;
          if Obj_model.addr o <> -1 then ok := false;
          if Obj_model.nfields o > 0 && Obj_model.field o 0 <> Obj_model.null
          then ok := false;
          if Obj_model.Registry.mem reg o.Obj_model.id then ok := false)
        !stale;
      if not (List.for_all frozen !stale) then ok := false;
      (* Writes through stale handles change no live object. *)
      let snapshot () =
        List.map
          (fun (_, o) ->
            ( Obj_model.addr o,
              Obj_model.birth_epoch o,
              Obj_model.fields_copy o,
              logged_bits o ))
          !live
      in
      let before = snapshot () in
      List.iter
        (fun ((o : Obj_model.t), nfields, _, _) ->
          Obj_model.set_all_logged o false;
          for i = 0 to nfields - 1 do
            Obj_model.set_field_logged o i (i mod 2 = 0)
          done;
          Obj_model.set_birth_epoch o (-1);
          Obj_model.set_addr o 4096;
          if nfields > 0 then Obj_model.set_field o 0 !max_id)
        !stale;
      if snapshot () <> before then ok := false;
      if not (List.for_all frozen !stale) then ok := false;
      (* Live handles stay canonical: lookup returns the same handle. *)
      List.iter
        (fun (id, (o : Obj_model.t)) ->
          if Obj_model.is_freed o then ok := false;
          if not (Obj_model.Registry.find_live reg id == o) then ok := false)
        !live;
      (* Oracle cross-check: no freed id is ever reachable. *)
      (match !live with
      | (rid, _) :: _ ->
        let reach = Obj_model.Registry.reachable_from reg [ rid ] in
        List.iter
          (fun ((o : Obj_model.t), _, _, _) ->
            if Mark_bitset.marked reach o.Obj_model.id then ok := false)
          !stale
      | [] -> ());
      !ok)

(* The registry against a naive model: live ids mapped to size, address,
   fields and logged bits. Field counts straddle the inline-bitmap limit
   (63) and repeat often, so freed field and bitmap extents get reused. *)
type reg_op =
  | Register of int  (** field count *)
  | Free of int  (** index into the live ids, modulo their count *)
  | Set_field of int * int * int  (** object, field, referent index *)
  | Set_logged of int * int * bool
  | Set_addr of int * int

let show_reg_op = function
  | Register n -> Printf.sprintf "register %d" n
  | Free k -> Printf.sprintf "free #%d" k
  | Set_field (k, i, v) -> Printf.sprintf "set_field #%d.%d <- #%d" k i v
  | Set_logged (k, i, b) -> Printf.sprintf "set_field_logged #%d.%d %b" k i b
  | Set_addr (k, a) -> Printf.sprintf "set_addr #%d %d" k a

let reg_op =
  let open QCheck.Gen in
  let nfields =
    oneof [ int_range 0 4; oneofl [ 63; 64; 126; 127 ]; int_range 0 130 ]
  in
  QCheck.make ~print:show_reg_op
    (frequency
       [ (4, map (fun n -> Register n) nfields);
         (3, map (fun k -> Free k) nat);
         (3, map3 (fun k i v -> Set_field (k, i, v)) nat nat nat);
         (2, map3 (fun k i b -> Set_logged (k, i, b)) nat nat bool);
         (1, map2 (fun k a -> Set_addr (k, a)) nat nat) ])

type model_obj = {
  handle : Obj_model.t;
  msize : int;
  mutable maddr : int;
  mfields : int array;
  mlogged : bool array;
}

let registry_model_prop =
  QCheck.Test.make ~name:"registry matches a naive id -> object model" ~count:100
    ~long_factor:100
    QCheck.(list_of_size Gen.(1 -- 300) reg_op)
    (fun ops ->
      let reg = Obj_model.Registry.create ~ids_hint:16 () in
      let model = Hashtbl.create 64 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let live_ids () =
        List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) model [])
      in
      let pick k f =
        match live_ids () with
        | [] -> ()
        | ids -> f (Hashtbl.find model (List.nth ids (k mod List.length ids)))
      in
      let next_id = ref 1 in
      List.iter
        (fun op ->
          (match op with
          | Register n ->
            let size = 16 * (n + 1) in
            let o =
              Obj_model.Registry.register reg ~size ~nfields:n
                ~addr:(16 * !next_id) ~birth_epoch:0
            in
            expect (o.Obj_model.id = !next_id);
            (* A recycled extent reads all-null and all-logged: its free-list
               link word is overwritten. *)
            expect (Obj_model.fields_copy o = Array.make n Obj_model.null);
            expect (logged_bits o = Array.make n true);
            Hashtbl.replace model o.Obj_model.id
              { handle = o;
                msize = size;
                maddr = 16 * !next_id;
                mfields = Array.make n Obj_model.null;
                mlogged = Array.make n true };
            incr next_id
          | Free k ->
            pick k (fun m ->
                Obj_model.Registry.free reg m.handle;
                Hashtbl.remove model m.handle.Obj_model.id)
          | Set_field (k, i, v) ->
            pick k (fun m ->
                let n = Array.length m.mfields in
                if n > 0 then begin
                  let ids = live_ids () in
                  let r = List.nth ids (v mod List.length ids) in
                  Obj_model.set_field m.handle (i mod n) r;
                  m.mfields.(i mod n) <- r
                end)
          | Set_logged (k, i, b) ->
            pick k (fun m ->
                let n = Array.length m.mlogged in
                if n > 0 then begin
                  Obj_model.set_field_logged m.handle (i mod n) b;
                  m.mlogged.(i mod n) <- b
                end)
          | Set_addr (k, a) ->
            pick k (fun m ->
                Obj_model.set_addr m.handle (16 * a);
                m.maddr <- 16 * a));
          expect (Obj_model.Registry.count reg = Hashtbl.length model);
          expect
            (Obj_model.Registry.live_bytes reg
            = Hashtbl.fold (fun _ m acc -> acc + m.msize) model 0))
        ops;
      for id = 0 to !next_id do
        let h = Obj_model.Registry.find_live reg id in
        match Hashtbl.find_opt model id with
        | Some m ->
          expect (h == m.handle);
          expect (Obj_model.Registry.mem reg id);
          expect (Obj_model.addr h = m.maddr);
          expect (Obj_model.fields_copy h = m.mfields);
          Array.iteri (fun j v -> expect (Obj_model.field h j = v)) m.mfields;
          expect (logged_bits h = m.mlogged)
        | None ->
          expect (h == Obj_model.Registry.none_handle reg);
          expect (not (Obj_model.Registry.mem reg id))
      done;
      let visited = ref [] in
      Obj_model.Registry.iter (fun h -> visited := h :: !visited) reg;
      let visited = List.rev !visited in
      let slots = List.map (fun (h : Obj_model.t) -> h.Obj_model.slot) visited in
      expect (List.sort_uniq compare slots = slots);
      expect
        (List.sort compare
           (List.map (fun (h : Obj_model.t) -> h.Obj_model.id) visited)
        = live_ids ());
      !ok)

(* Registration allocates the handle record and nothing else, and freeing
   allocates nothing, once the store has grown to the working set. The id
   map grows with every new id (ids are never reused), so [ids_hint]
   presizes it. The field counts cover the empty, inline-bitmap and
   wide-bitmap paths. *)
let test_registration_allocates_only_handle () =
  let shapes = [| 0; 1; 5; 17; 63; 64; 100; 130 |] in
  let n = 4000 in
  let reg = Obj_model.Registry.create ~ids_hint:(2 * n + 1) () in
  let hs = Array.make n (Obj_model.Registry.none_handle reg) in
  let register_all () =
    for i = 0 to n - 1 do
      hs.(i) <-
        Obj_model.Registry.register reg ~size:64
          ~nfields:shapes.(i mod Array.length shapes) ~addr:0 ~birth_epoch:0
    done
  in
  let free_all () =
    for i = 0 to n - 1 do
      Obj_model.Registry.free reg hs.(i)
    done
  in
  register_all ();
  free_all ();
  let w0 = Gc.minor_words () in
  register_all ();
  let w1 = Gc.minor_words () in
  free_all ();
  let w2 = Gc.minor_words () in
  let handle_words = 1 + Obj.size (Obj.repr hs.(0)) in
  let extra = w1 -. w0 -. Float.of_int (n * handle_words) in
  check "register allocates one handle" true (extra >= 0. && extra < 16.);
  check "free allocates nothing" true (w2 -. w1 < 16.)

(* [Array.make] of more than 256 elements over a young initial value
   forces a minor collection, so a registry whose handle array were
   filled with its own fresh [none] would force one per create. In the
   test binary this loop runs 6 minor collections; with a young fill
   value it ran 107. *)
let test_create_forces_no_minor_gc () =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Obj_model.Registry.create ()))
  done;
  let minors = (Gc.quick_stat ()).Gc.minor_collections - before in
  if minors >= 70 then
    Alcotest.failf "100 registry creates ran %d minor collections" minors

let alloc_alignment_prop =
  QCheck.Test.make ~name:"heap alloc always granule aligned and in-heap" ~count:300
    QCheck.(int_range 1 16000)
    (fun size ->
      let heap = fresh_heap () in
      let a = Heap.make_allocator heap in
      let obj = Heap.alloc_fast heap a ~size ~nfields:1 in
      obj.id <> Obj_model.null
      && Addr.is_granule_aligned heap.cfg (Obj_model.addr obj)
      && obj.size >= size
      && obj.size mod heap.cfg.granule_bytes = 0
      && Addr.valid heap.cfg (Obj_model.addr obj)
      && Addr.valid heap.cfg ((Obj_model.addr obj) + obj.size - 1))

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [ ( "heap:config",
      [ Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "rounding" `Quick test_config_rounds_heap;
        Alcotest.test_case "validation" `Quick test_config_validation ] );
    ( "heap:addr",
      [ Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic;
        Alcotest.test_case "lines covered" `Quick test_addr_lines_covered ] );
    ( "heap:rc_table",
      [ Alcotest.test_case "inc/dec" `Quick test_rc_inc_dec;
        Alcotest.test_case "stick" `Quick test_rc_stick;
        Alcotest.test_case "neighbours" `Quick test_rc_neighbours_independent;
        Alcotest.test_case "8-bit" `Quick test_rc_wider_bits;
        Alcotest.test_case "clear range" `Quick test_rc_clear_range;
        Alcotest.test_case "straddle" `Quick test_rc_straddle;
        Alcotest.test_case "line/block free" `Quick test_rc_line_block_free ]
      @ qc
          [ rc_inc_dec_roundtrip_prop;
            rc_packed_independence_prop;
            rc_clear_range_matches_set_loop_prop ] );
    ( "heap:marks",
      [ Alcotest.test_case "basic" `Quick test_marks;
        Alcotest.test_case "growth" `Quick test_marks_growth;
        Alcotest.test_case "clear" `Quick test_marks_clear ] );
    ("heap:reuse", [ Alcotest.test_case "counters" `Quick test_reuse ]);
    ( "heap:objects",
      [ Alcotest.test_case "registry" `Quick test_registry_basics;
        Alcotest.test_case "field bounds" `Quick test_field_bounds;
        Alcotest.test_case "logged bits" `Quick test_logged_bits;
        Alcotest.test_case "oracle" `Quick test_reachability_oracle;
        Alcotest.test_case "registration allocates only its handle" `Quick
          test_registration_allocates_only_handle;
        Alcotest.test_case "create forces no minor collection" `Quick
          test_create_forces_no_minor_gc ]
      @ qc [ recycled_slots_never_alias_prop; registry_model_prop ] );
    ( "heap:blocks",
      [ Alcotest.test_case "state" `Quick test_blocks_state;
        Alcotest.test_case "residents" `Quick test_blocks_residents;
        Alcotest.test_case "free lists" `Quick test_free_lists ]
      @ qc [ blocks_count_matches_scan_prop ] );
    ( "heap:allocator",
      [ Alcotest.test_case "basic bump" `Quick test_alloc_basic;
        Alcotest.test_case "receipt" `Quick test_alloc_receipt;
        Alcotest.test_case "no overlap" `Quick test_alloc_no_overlap;
        Alcotest.test_case "young flag" `Quick test_alloc_young_flag;
        Alcotest.test_case "skips used lines" `Quick test_alloc_skips_used_lines;
        Alcotest.test_case "overflow block" `Quick test_alloc_overflow_block;
        Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion ] );
    ( "heap:facade",
      [ Alcotest.test_case "alloc registers" `Quick test_heap_alloc_registers;
        Alcotest.test_case "rc roundtrip" `Quick test_heap_rc_roundtrip;
        Alcotest.test_case "straddle on first inc" `Quick test_heap_straddle_on_first_inc;
        Alcotest.test_case "los" `Quick test_heap_los;
        Alcotest.test_case "los exhaustion" `Quick test_heap_los_exhaustion;
        Alcotest.test_case "evacuate" `Quick test_heap_evacuate;
        Alcotest.test_case "los not evacuated" `Quick test_heap_evacuate_los_refused;
        Alcotest.test_case "rc sweep" `Quick test_heap_rc_sweep_block;
        Alcotest.test_case "rc sweep all dead" `Quick test_heap_rc_sweep_block_all_dead;
        Alcotest.test_case "pin" `Quick test_heap_pin;
        Alcotest.test_case "rebuild lists" `Quick test_heap_rebuild_free_lists;
        Alcotest.test_case "touched blocks ascending" `Quick
          test_touched_blocks_ascending ]
      @ qc [ alloc_alignment_prop ] ) ]
