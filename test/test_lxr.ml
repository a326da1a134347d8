(* Correctness tests for the LXR collector.

   The central safety oracle keeps its own table of every object ever
   allocated (object records outlive their registry entries), recomputes
   reachability from the root array over that shadow graph, and asserts
   that no reachable object has been freed — catching wrongful
   reclamation that the registry's own traversal could never see. *)

open Repro_heap
open Repro_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let null = Obj_model.null

type env = {
  api : Api.t;
  heap : Heap.t;
  shadow : (int, Obj_model.t) Hashtbl.t;  (* every object ever allocated *)
  prng : Repro_util.Prng.t;
}

let make_env ?(heap_kb = 256) ?(factory = Repro_lxr.Lxr.factory) ?(seed = 1) () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(heap_kb * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap factory in
  { api; heap; shadow = Hashtbl.create 256; prng = Repro_util.Prng.create seed }

let alloc env ?(size = 64) ?(nfields = 4) () =
  let obj = Api.alloc_fast env.api ~size ~nfields in
  if obj.id = null then Alcotest.fail (Api.describe_oom (Api.last_oom env.api));
  Hashtbl.replace env.shadow obj.id obj;
  obj

(* Allocate-and-drop until roughly [bytes] have been allocated, driving RC
   epochs (and concurrent work) forward. *)
let spin env ~bytes =
  let n = max 1 (bytes / 64) in
  for _ = 1 to n do
    ignore (alloc env ~size:64 ~nfields:2 ())
  done;
  Api.safepoint env.api

(* Drive epochs until the whole current heap has turned over several
   times — enough for lazy decrements and at least one full SATB cycle. *)
let quiesce env = spin env ~bytes:(4 * Heap.total_bytes env.heap)

let registered env id = Obj_model.Registry.mem env.heap.registry id

(* The safety oracle: everything reachable from the roots through the
   shadow graph must still be registered (never wrongly freed). *)
let assert_safety env =
  let seen = Hashtbl.create 256 in
  let rec visit id =
    if id <> null && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match Hashtbl.find_opt env.shadow id with
      | None -> ()  (* allocated outside the shadow (none in these tests) *)
      | Some obj ->
        if not (registered env id) then
          Alcotest.failf "reachable object %d was freed" id;
        Obj_model.iter_fields visit obj
    end
  in
  Array.iter visit (Api.roots env.api)

(* --- Basic lifecycle ----------------------------------------------------- *)

let test_young_garbage_dies () =
  let env = make_env () in
  let before = Obj_model.Registry.count env.heap.registry in
  spin env ~bytes:(2 * Heap.total_bytes env.heap);
  (* Unreferenced allocations must not accumulate. *)
  let after = Obj_model.Registry.count env.heap.registry in
  check "registry bounded" true (after < before + 2000);
  assert_safety env

let test_rooted_object_survives () =
  let env = make_env () in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  quiesce env;
  check "still registered" true (registered env obj.id);
  check "promoted" true (Heap.rc_of env.heap obj > 0);
  assert_safety env

let test_transitive_survival () =
  let env = make_env () in
  let parent = alloc env () in
  Api.set_root env.api 0 parent.id;
  let child = alloc env () in
  Api.write env.api parent 0 child.id;
  let grandchild = alloc env () in
  (match Hashtbl.find_opt env.shadow child.id with
  | Some c -> Api.write env.api c 0 grandchild.id
  | None -> Alcotest.fail "child vanished");
  quiesce env;
  check "parent" true (registered env parent.id);
  check "child" true (registered env child.id);
  check "grandchild" true (registered env grandchild.id);
  assert_safety env

let test_dropped_reference_reclaimed () =
  let env = make_env () in
  let parent = alloc env () in
  Api.set_root env.api 0 parent.id;
  let child = alloc env () in
  Api.write env.api parent 0 child.id;
  spin env ~bytes:(Heap.total_bytes env.heap);
  check "child promoted" true (registered env child.id);
  Api.write env.api parent 0 null;
  quiesce env;
  check "child reclaimed after drop" false (registered env child.id);
  assert_safety env

let test_coalescing_intermediate_referent () =
  let env = make_env () in
  let parent = alloc env () in
  Api.set_root env.api 0 parent.id;
  spin env ~bytes:(Heap.total_bytes env.heap / 2);
  (* Within one epoch, the field passes through [a] and settles on [b]:
     only the final referent gets an increment (§2.1). *)
  let a = alloc env () in
  Api.write env.api parent 0 a.id;
  let b = alloc env () in
  Api.write env.api parent 0 b.id;
  quiesce env;
  check "intermediate dead" false (registered env a.id);
  check "final alive" true (registered env b.id);
  assert_safety env

let test_root_deferral_drop () =
  let env = make_env () in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  spin env ~bytes:(Heap.total_bytes env.heap);
  check "rooted alive" true (registered env obj.id);
  Api.set_root env.api 0 null;
  quiesce env;
  check "dropped root reclaimed" false (registered env obj.id)

(* --- Cycles and stuck counts (SATB's job) --------------------------------- *)

let test_cycle_reclaimed_by_satb () =
  let env = make_env () in
  let holder = alloc env () in
  Api.set_root env.api 0 holder.id;
  let a = alloc env () in
  Api.write env.api holder 0 a.id;
  let b = alloc env () in
  Api.write env.api a 0 b.id;
  Api.write env.api b 0 a.id;
  spin env ~bytes:(Heap.total_bytes env.heap);
  check "cycle alive while referenced" true (registered env a.id && registered env b.id);
  (* Drop the external reference: RC alone cannot reclaim the pair. *)
  Api.write env.api holder 0 null;
  quiesce env;
  quiesce env;
  check "cycle collected" false (registered env a.id || registered env b.id);
  assert_safety env

let test_self_cycle_reclaimed () =
  let env = make_env () in
  let holder = alloc env () in
  Api.set_root env.api 0 holder.id;
  let a = alloc env () in
  Api.write env.api holder 0 a.id;
  Api.write env.api a 0 a.id;
  spin env ~bytes:(Heap.total_bytes env.heap);
  Api.write env.api holder 0 null;
  quiesce env;
  quiesce env;
  check "self cycle collected" false (registered env a.id)

let test_stuck_count_reclaimed_by_satb () =
  let env = make_env () in
  let obj = alloc env () in
  (* Five incoming references stick the 2-bit count at 3. *)
  for slot = 0 to 4 do
    Api.set_root env.api slot obj.id
  done;
  spin env ~bytes:(Heap.total_bytes env.heap);
  check "stuck" true (Heap.rc_is_stuck env.heap obj);
  for slot = 0 to 4 do
    Api.set_root env.api slot null
  done;
  quiesce env;
  quiesce env;
  check "stuck object reclaimed by trace" false (registered env obj.id)

let test_live_object_survives_satb_cycles () =
  let env = make_env () in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  quiesce env;
  quiesce env;
  quiesce env;
  check "live across SATB cycles" true (registered env obj.id)

(* --- Write barrier (§3.4) --------------------------------------------------- *)

let stat env key =
  match List.assoc_opt key ((Api.collector env.api).Collector.stats ()) with
  | Some v -> int_of_float v
  | None -> 0

let test_barrier_coalesces () =
  let env = make_env () in
  let parent = alloc env () in
  Api.set_root env.api 0 parent.id;
  spin env ~bytes:(Heap.total_bytes env.heap);
  (* Promoted object: the first store this epoch logs, the rest do not. *)
  let before = stat env "wb_slow" in
  let x = alloc env () in
  Api.write env.api parent 1 x.id;
  let y = alloc env () in
  Api.write env.api parent 1 y.id;
  let z = alloc env () in
  Api.write env.api parent 1 z.id;
  check_int "one slow path for three stores" (before + 1) (stat env "wb_slow")

let test_barrier_ignores_new_objects () =
  let env = make_env () in
  let before = stat env "wb_slow" in
  let a = alloc env () in
  let b = alloc env () in
  (* Stores into a brand-new object are never logged (implicitly dead). *)
  Api.write env.api a 0 b.id;
  Api.write env.api a 1 b.id;
  check_int "no slow paths" before (stat env "wb_slow")

(* --- Evacuation -------------------------------------------------------------- *)

let test_young_evacuation_moves_objects () =
  let env = make_env () in
  let table = alloc env ~nfields:32 () in
  Api.set_root env.api 0 table.id;
  spin env ~bytes:(Heap.total_bytes env.heap / 2);
  (* Allocate survivors into fresh young blocks; they should be copied at
     their first increment. *)
  for i = 0 to 31 do
    let o = alloc env () in
    Api.write env.api table i o.id
  done;
  spin env ~bytes:(Heap.total_bytes env.heap);
  check "some young evacuation happened" true (stat env "young_evacuated" > 0);
  for i = 0 to 31 do
    check "survivor alive" true (registered env (Obj_model.field table i))
  done;
  assert_safety env

let test_mature_evacuation_preserves_graph () =
  let env = make_env ~heap_kb:512 () in
  let table = alloc env ~nfields:64 () in
  Api.set_root env.api 0 table.id;
  (* Create fragmentation: many mature objects, then drop most. *)
  for round = 1 to 8 do
    for i = 0 to 63 do
      let o = alloc env ~size:128 () in
      if (i + round) mod 7 = 0 then Api.write env.api table i o.id
    done;
    spin env ~bytes:(Heap.total_bytes env.heap / 3)
  done;
  quiesce env;
  quiesce env;
  check "mature evacuation ran" true (stat env "mature_evacuated" >= 0);
  assert_safety env

(* --- Ablations run the same scenarios ----------------------------------------- *)

let ablation_scenario factory () =
  let env = make_env ~factory () in
  let holder = alloc env () in
  Api.set_root env.api 0 holder.id;
  let a = alloc env () in
  Api.write env.api holder 0 a.id;
  let b = alloc env () in
  Api.write env.api a 0 b.id;
  Api.write env.api b 0 a.id;
  spin env ~bytes:(Heap.total_bytes env.heap);
  Api.write env.api holder 0 null;
  quiesce env;
  quiesce env;
  check "cycle collected" false (registered env a.id || registered env b.id);
  assert_safety env

(* --- Object-granularity barrier (§3.4) --------------------------------------- *)

let obj_env () = make_env ~factory:Repro_lxr.Lxr.factory_object_barrier ()

let test_object_barrier_lifecycle () =
  let env = obj_env () in
  let parent = alloc env () in
  Api.set_root env.api 0 parent.id;
  let child = alloc env () in
  Api.write env.api parent 0 child.id;
  quiesce env;
  check "child alive" true (registered env child.id);
  Api.write env.api parent 0 null;
  quiesce env;
  check "child reclaimed" false (registered env child.id);
  assert_safety env

let test_object_barrier_one_log_per_object () =
  let env = obj_env () in
  let parent = alloc env ~nfields:8 () in
  Api.set_root env.api 0 parent.id;
  spin env ~bytes:(Heap.total_bytes env.heap);
  let before = stat env "wb_slow" in
  (* Writes to several DIFFERENT fields of one object log once. *)
  let a = alloc env () in
  Api.write env.api parent 0 a.id;
  let b = alloc env () in
  Api.write env.api parent 3 b.id;
  let c = alloc env () in
  Api.write env.api parent 7 c.id;
  check_int "single log for three fields" (before + 1) (stat env "wb_slow")

(* --- Regional evacuation (§3.3.2) ---------------------------------------------- *)

let test_regional_evacuation_lifecycle () =
  let env = make_env ~factory:Repro_lxr.Lxr.factory_regional_evacuation () in
  let table = alloc env ~nfields:48 () in
  Api.set_root env.api 0 table.id;
  (* Fragment the mature space so evacuation sets span several regions. *)
  for round = 1 to 10 do
    for i = 0 to 47 do
      let o = alloc env ~size:160 () in
      if (i + round) mod 9 = 0 then Api.write env.api table i o.id
    done;
    spin env ~bytes:(Heap.total_bytes env.heap / 4)
  done;
  quiesce env;
  quiesce env;
  for i = 0 to 47 do
    let r = (Obj_model.field table i) in
    if r <> null then check "survivor alive" true (registered env r)
  done;
  assert_safety env

let test_satb_backstop_fires () =
  (* A workload that never crosses the clean-block or wastage thresholds
     must still trace periodically (completeness). *)
  let env = make_env () in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  quiesce env;
  quiesce env;
  quiesce env;
  check "multiple traces over a long clean run" true
    (stat env "satb_traces_completed" >= 2)

(* --- Emergency behaviour --------------------------------------------------------- *)

let test_no_oom_under_pressure () =
  (* A very tight heap with heavy churn must still complete. *)
  let env = make_env ~heap_kb:128 () in
  let table = alloc env ~nfields:16 () in
  Api.set_root env.api 0 table.id;
  for i = 0 to 4000 do
    let o = alloc env ~size:96 () in
    if i mod 3 = 0 then Api.write env.api table (i mod 16) o.id
  done;
  assert_safety env

let test_large_objects_lifecycle () =
  let env = make_env ~heap_kb:512 () in
  let holder = alloc env () in
  Api.set_root env.api 0 holder.id;
  let big = alloc env ~size:40_000 ~nfields:2 () in
  Api.write env.api holder 0 big.id;
  spin env ~bytes:(Heap.total_bytes env.heap / 2);
  check "large object promoted" true (registered env big.id);
  Api.write env.api holder 0 null;
  quiesce env;
  check "large object reclaimed" false (registered env big.id);
  assert_safety env

(* --- Random operations property ---------------------------------------------------- *)

let random_ops_safety factory seed =
  let env = make_env ~factory ~seed () in
  let prng = env.prng in
  let objects = ref [] in
  for _ = 1 to 3000 do
    match Repro_util.Prng.int prng 10 with
    | 0 | 1 | 2 | 3 ->
      let o = alloc env ~size:(16 + (16 * Repro_util.Prng.int prng 16)) () in
      objects := o.id :: !objects;
      if List.length !objects > 400 then
        objects := List.filteri (fun i _ -> i < 200) !objects
    | 4 | 5 ->
      (* Root a random known object (freed ids are fine: we only write
         live ones). *)
      (match !objects with
      | [] -> ()
      | l ->
        let id = List.nth l (Repro_util.Prng.int prng (List.length l)) in
        if registered env id then
          Api.set_root env.api (Repro_util.Prng.int prng 8) id)
    | 6 -> Api.set_root env.api (Repro_util.Prng.int prng 8) null
    | 7 | 8 ->
      (* Random field store between live objects. *)
      (match !objects with
      | [] -> ()
      | l ->
        let pick () = List.nth l (Repro_util.Prng.int prng (List.length l)) in
        let src = pick () and dst = pick () in
        (match (Hashtbl.find_opt env.shadow src, registered env src, registered env dst) with
        | Some s, true, true when Obj_model.nfields s > 0 ->
          Api.write env.api s (Repro_util.Prng.int prng (Obj_model.nfields s)) dst
        | _ -> ()))
    | _ -> Api.work env.api ~ns:200.0
  done;
  assert_safety env;
  quiesce env;
  assert_safety env;
  true

let random_safety_prop =
  QCheck.Test.make ~name:"random mutation safety (LXR)" ~count:12
    QCheck.(int_range 1 10_000)
    (fun seed -> random_ops_safety Repro_lxr.Lxr.factory seed)

let random_safety_stw_prop =
  QCheck.Test.make ~name:"random mutation safety (LXR STW)" ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed -> random_ops_safety Repro_lxr.Lxr.factory_stw seed)

let random_safety_objbar_prop =
  QCheck.Test.make ~name:"random mutation safety (LXR object barrier)" ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed -> random_ops_safety Repro_lxr.Lxr.factory_object_barrier seed)

let random_safety_regions_prop =
  QCheck.Test.make ~name:"random mutation safety (LXR regional evac)" ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed -> random_ops_safety Repro_lxr.Lxr.factory_regional_evacuation seed)

(* --- Predictor (§3.2.1) -------------------------------------------------------------- *)

let test_predictor_bias () =
  let p = Repro_lxr.Predictor.create ~initial:0.0 in
  Repro_lxr.Predictor.observe p 1.0;
  (* Upward observations weigh 3/4. *)
  Alcotest.(check (float 1e-9)) "up fast" 0.75 (Repro_lxr.Predictor.value p);
  Repro_lxr.Predictor.observe p 0.0;
  (* Downward observations weigh only 1/4. *)
  Alcotest.(check (float 1e-9)) "down slow" 0.5625 (Repro_lxr.Predictor.value p)

let test_predictor_converges () =
  let p = Repro_lxr.Predictor.create ~initial:0.9 in
  for _ = 1 to 50 do
    Repro_lxr.Predictor.observe p 0.1
  done;
  check "converges down" true (Float.abs (Repro_lxr.Predictor.value p -. 0.1) < 0.01)

(* --- Config / stats --------------------------------------------------------------------- *)

let test_config_scaling () =
  let c = Repro_lxr.Lxr_config.scaled_default ~heap_bytes:(32 * 1024 * 1024)
      ~block_bytes:32768
  in
  check "survival threshold positive" true (c.survival_threshold_bytes > 0);
  check "wastage sane" true (c.wastage_threshold > 0.0 && c.wastage_threshold < 1.0);
  let stw = Repro_lxr.Lxr_config.stw c in
  check "stw disables satb conc" false stw.concurrent_satb;
  check "stw disables lazy" false stw.lazy_decrements;
  let nosatb = Repro_lxr.Lxr_config.no_concurrent_satb c in
  check "nosatb keeps lazy" true nosatb.lazy_decrements;
  let nold = Repro_lxr.Lxr_config.no_lazy_decrements c in
  check "nold keeps satb" true nold.concurrent_satb

let test_stats_alist () =
  let s = Repro_lxr.Lxr_stats.create () in
  check_int "alist size" 23 (List.length (Repro_lxr.Lxr_stats.to_alist s))

let test_phase_breakdown () =
  let env = make_env () in
  let obj = alloc env () in
  Api.set_root env.api 0 obj.id;
  quiesce env;
  let v k =
    match List.assoc_opt k ((Api.collector env.api).Collector.stats ()) with
    | Some x -> x
    | None -> 0.0
  in
  check "increments dominate a young-heavy run" true (v "phase_inc_ns" > 0.0);
  check "sweeping accounted" true (v "phase_sweep_ns" > 0.0);
  (* Lazy decrements run concurrently: in-pause decrement time should be
     small relative to increments in this clean workload. *)
  check "lazy keeps decs out of pauses" true
    (v "phase_dec_ns" <= v "phase_inc_ns")

let test_remset_staleness_tag () =
  (* An entry whose source line is reused after insertion must be
     discarded at evacuation time (§3.3.2's correctness concern). *)
  let heap = Heap.create (Heap_config.make ~heap_bytes:(256 * 1024) ()) in
  let r = Repro_lxr.Remset.create () in
  let line = 5 in
  Repro_lxr.Remset.add r ~src:1 ~field:0 ~tag:(Reuse_table.get heap.reuse line);
  Reuse_table.bump heap.reuse line;
  Repro_lxr.Remset.drain r (fun { Repro_lxr.Remset.tag; _ } ->
      check "entry is stale" true (Reuse_table.get heap.reuse line > tag));
  (* Fresh entries carry the current counter and pass the check. *)
  Repro_lxr.Remset.add r ~src:1 ~field:0 ~tag:(Reuse_table.get heap.reuse line);
  Repro_lxr.Remset.drain r (fun { Repro_lxr.Remset.tag; _ } ->
      check "entry is fresh" false (Reuse_table.get heap.reuse line > tag))

let test_remset_module () =
  let r = Repro_lxr.Remset.create () in
  check_int "empty" 0 (Repro_lxr.Remset.length r);
  Repro_lxr.Remset.add r ~src:1 ~field:2 ~tag:3;
  Repro_lxr.Remset.add r ~src:4 ~field:5 ~tag:6;
  check_int "two entries" 2 (Repro_lxr.Remset.length r);
  let seen = ref [] in
  Repro_lxr.Remset.drain r (fun e -> seen := (e.src, e.field, e.tag) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "drained" [ (4, 5, 6); (1, 2, 3) ] !seen;
  check_int "drained empty" 0 (Repro_lxr.Remset.length r)

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [ ( "lxr:lifecycle",
      [ Alcotest.test_case "young garbage dies" `Quick test_young_garbage_dies;
        Alcotest.test_case "rooted survives" `Quick test_rooted_object_survives;
        Alcotest.test_case "transitive survival" `Quick test_transitive_survival;
        Alcotest.test_case "drop reclaims" `Quick test_dropped_reference_reclaimed;
        Alcotest.test_case "coalescing intermediates" `Quick test_coalescing_intermediate_referent;
        Alcotest.test_case "root deferral" `Quick test_root_deferral_drop ] );
    ( "lxr:satb",
      [ Alcotest.test_case "cycle reclaimed" `Quick test_cycle_reclaimed_by_satb;
        Alcotest.test_case "self cycle" `Quick test_self_cycle_reclaimed;
        Alcotest.test_case "stuck count reclaimed" `Quick test_stuck_count_reclaimed_by_satb;
        Alcotest.test_case "live survives traces" `Quick test_live_object_survives_satb_cycles ] );
    ( "lxr:barrier",
      [ Alcotest.test_case "coalesces" `Quick test_barrier_coalesces;
        Alcotest.test_case "ignores new objects" `Quick test_barrier_ignores_new_objects ] );
    ( "lxr:evacuation",
      [ Alcotest.test_case "young evacuation" `Quick test_young_evacuation_moves_objects;
        Alcotest.test_case "mature evacuation" `Quick test_mature_evacuation_preserves_graph ] );
    ( "lxr:ablations",
      [ Alcotest.test_case "-SATB cycle collection" `Quick
          (ablation_scenario Repro_lxr.Lxr.factory_no_satb_concurrency);
        Alcotest.test_case "-LD cycle collection" `Quick
          (ablation_scenario Repro_lxr.Lxr.factory_no_lazy_decrements);
        Alcotest.test_case "STW cycle collection" `Quick
          (ablation_scenario Repro_lxr.Lxr.factory_stw);
        Alcotest.test_case "object barrier cycle collection" `Quick
          (ablation_scenario Repro_lxr.Lxr.factory_object_barrier);
        Alcotest.test_case "regional evacuation cycle collection" `Quick
          (ablation_scenario Repro_lxr.Lxr.factory_regional_evacuation) ] );
    ( "lxr:object-barrier",
      [ Alcotest.test_case "lifecycle" `Quick test_object_barrier_lifecycle;
        Alcotest.test_case "one log per object" `Quick
          test_object_barrier_one_log_per_object ] );
    ( "lxr:regional",
      [ Alcotest.test_case "lifecycle across regions" `Quick
          test_regional_evacuation_lifecycle;
        Alcotest.test_case "backstop trace fires" `Quick test_satb_backstop_fires ] );
    ( "lxr:pressure",
      [ Alcotest.test_case "no OOM under churn" `Quick test_no_oom_under_pressure;
        Alcotest.test_case "large objects" `Quick test_large_objects_lifecycle ] );
    ( "lxr:random",
      qc
        [ random_safety_prop; random_safety_stw_prop; random_safety_objbar_prop;
          random_safety_regions_prop ] );
    ( "lxr:predictor",
      [ Alcotest.test_case "asymmetric bias" `Quick test_predictor_bias;
        Alcotest.test_case "convergence" `Quick test_predictor_converges ] );
    ( "lxr:components",
      [ Alcotest.test_case "config" `Quick test_config_scaling;
        Alcotest.test_case "stats" `Quick test_stats_alist;
        Alcotest.test_case "phase breakdown" `Quick test_phase_breakdown;
        Alcotest.test_case "remset staleness" `Quick test_remset_staleness_tag;
        Alcotest.test_case "remset" `Quick test_remset_module ] ) ]
