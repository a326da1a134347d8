(* Tests for the virtual-time engine: clock, parallelism model, barriers,
   and the mutator API. *)

open Repro_engine
open Repro_heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

let no_conc = fun ~budget_ns:_ -> 0.0

(* --- Trace_cost ----------------------------------------------------------- *)

let meter gc_threads = Trace_cost.create Cost_model.default ~gc_threads

let test_trace_cost_parallel () =
  let tc = meter 4 in
  Trace_cost.add_parallel tc ~cost_ns:100.0;
  check_float "cpu" 100.0 (Trace_cost.cpu_ns tc);
  check_float "critical divided" 25.0 (Trace_cost.critical_ns tc)

let test_trace_cost_frontier_limited () =
  let tc = meter 8 in
  (* Frontier of 2 with 8 threads: only 2-way parallelism available. *)
  Trace_cost.add tc ~frontier:2 ~cost_ns:100.0;
  check_float "limited" 50.0 (Trace_cost.critical_ns tc)

let test_trace_cost_linked_list_pathology () =
  (* A 1000-node list traced with 8 threads costs the same wall time as
     with 1 thread: the paper's §5.2 scalability argument. *)
  let wall threads =
    let tc = meter threads in
    for _ = 1 to 1000 do
      Trace_cost.add tc ~frontier:1 ~cost_ns:10.0
    done;
    Trace_cost.critical_ns tc
  in
  check_float "list defeats parallelism" (wall 1) (wall 8)

(* --- Sim -------------------------------------------------------------------- *)

let test_sim_flush_unsaturated () =
  let sim = Sim.create Cost_model.default in
  (* 8 mutator threads on 32 cores: aggregate work divides by 8. *)
  Sim.charge_mutator sim 8000.0;
  Sim.flush sim ~conc_threads:0 ~conc_run:no_conc;
  check_float "wall" 1000.0 (Sim.now sim);
  check_float "mutator cpu" 8000.0 (Sim.mutator_cpu sim);
  check_float "pending drained" 0.0 (Sim.pending sim)

let test_sim_flush_core_stealing () =
  let cost = { Cost_model.default with cores = 8; mutator_threads = 8 } in
  let sim = Sim.create cost in
  Sim.charge_mutator sim 8000.0;
  (* 4 concurrent GC threads leave only 4 cores for 8 mutator threads:
     wall doubles. *)
  Sim.flush sim ~conc_threads:4 ~conc_run:no_conc;
  check_float "slowed wall" 2000.0 (Sim.now sim)

let test_sim_conc_budget () =
  let sim = Sim.create Cost_model.default in
  Sim.charge_mutator sim 8000.0;
  let budget_seen = ref 0.0 in
  Sim.flush sim ~conc_threads:2 ~conc_run:(fun ~budget_ns ->
      budget_seen := budget_ns;
      budget_ns /. 2.0);
  (* Wall was 1000ns, 2 conc threads -> 2000ns budget. *)
  check_float "budget" 2000.0 !budget_seen;
  check_float "consumed into gc cpu" 1000.0 (Sim.gc_cpu sim)

let test_sim_interference () =
  let sim = Sim.create Cost_model.default in
  Sim.set_interference sim 0.5;
  Sim.charge_mutator sim 8000.0;
  Sim.flush sim ~conc_threads:0 ~conc_run:no_conc;
  check_float "inflated wall" 1500.0 (Sim.now sim)

let test_sim_pause () =
  let sim = Sim.create Cost_model.default in
  Sim.pause sim ~wall_ns:1000.0 ~cpu_ns:4000.0;
  check_float "clock" 1000.0 (Sim.now sim);
  check_float "stw wall" 1000.0 (Sim.stw_wall sim);
  check_float "stw cpu" 4000.0 (Sim.stw_cpu sim);
  check_float "gc cpu" 4000.0 (Sim.gc_cpu sim);
  check_int "pause count" 1 (Sim.pause_count sim);
  check_int "histogram" 1 (Repro_util.Histogram.count (Sim.pauses sim))

let test_sim_idle () =
  let sim = Sim.create Cost_model.default in
  let got = ref 0.0 in
  Sim.advance_idle sim ~until:5000.0 ~conc_threads:1 ~conc_run:(fun ~budget_ns ->
      got := budget_ns;
      0.0);
  check_float "advanced" 5000.0 (Sim.now sim);
  check_float "idle budget" 5000.0 !got;
  (* Idle to the past is a no-op. *)
  Sim.advance_idle sim ~until:1000.0 ~conc_threads:1 ~conc_run:no_conc;
  check_float "no rewind" 5000.0 (Sim.now sim)

let test_sim_reset_measurement () =
  let sim = Sim.create Cost_model.default in
  Sim.charge_mutator sim 800.0;
  Sim.flush sim ~conc_threads:0 ~conc_run:no_conc;
  Sim.pause sim ~wall_ns:10.0 ~cpu_ns:10.0;
  Sim.note_alloc sim ~bytes:64;
  Sim.reset_measurement sim;
  check "clock keeps running" true (Sim.now sim > 0.0);
  check_float "cpu reset" 0.0 (Sim.mutator_cpu sim);
  check_int "pauses reset" 0 (Sim.pause_count sim);
  check_int "alloc reset" 0 (Sim.alloc_bytes sim)

(* --- Api --------------------------------------------------------------------- *)

(* A counting collector that records barrier invocations. *)
let counting_factory writes allocs : Collector.t =
  { Collector.name = "counting";
    on_alloc = (fun _ -> incr allocs);
    on_write = (fun _ _ _ -> incr writes);
    write_extra_ns = 0.0;
    read_extra_ns = 0.0;
    poll = (fun () -> ());
    collect_for_alloc = (fun _ -> ());
    conc_active = (fun () -> 0);
    conc_run = (fun ~budget_ns:_ -> 0.0);
    conc_backlog = (fun () -> 0);
    on_finish = (fun () -> ());
    stats = (fun () -> []);
    introspect = Collector.no_introspection }

let make_api () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(256 * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let writes = ref 0 and allocs = ref 0 in
  let api = Api.create sim heap (fun _ _ ~roots:_ -> counting_factory writes allocs) in
  (api, sim, writes, allocs)

let test_api_alloc_and_hooks () =
  let api, sim, _, allocs = make_api () in
  let obj = Api.alloc_fast api ~size:64 ~nfields:2 in
  check_int "hook fired" 1 !allocs;
  check_int "alloc bytes" 64 (Sim.alloc_bytes sim);
  check_int "alloc count" 1 (Sim.alloc_count sim);
  (* The new object is held by the scratch root across the safepoint. *)
  check_int "scratch root" obj.id (Api.roots api).(Api.root_slots - 1)

let test_api_write_barrier_order () =
  let api, _, writes, _ = make_api () in
  let a = Api.alloc_fast api ~size:64 ~nfields:2 in
  let b = Api.alloc_fast api ~size:64 ~nfields:2 in
  Api.write api a 0 b.id;
  check_int "barrier fired" 1 !writes;
  check_int "store landed" b.id (Api.read api a 0)

let test_api_work_and_flush () =
  let api, sim, _, _ = make_api () in
  Api.work api ~ns:123.0;
  Api.safepoint api;
  check "time advanced" true (Sim.now sim > 0.0)

let test_api_roots () =
  let api, _, _, _ = make_api () in
  let a = Api.alloc_fast api ~size:64 ~nfields:1 in
  Api.set_root api 0 a.id;
  check_int "root get" a.id (Api.get_root api 0)

let test_api_oom () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(64 * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let writes = ref 0 and allocs = ref 0 in
  let api = Api.create sim heap (fun _ _ ~roots:_ -> counting_factory writes allocs) in
  (* The counting collector never frees anything, so exhaustion must
     surface as the null handle — no exception. *)
  let rec fill n =
    if (Api.alloc_fast api ~size:8192 ~nfields:0).id = Obj_model.null then n
    else if n > 100_000 then Alcotest.fail "heap never exhausted"
    else fill (n + 1)
  in
  let n = fill 0 in
  check "some allocations succeeded first" true (n > 0);
  check_int "requested size reported" 8192 (Api.last_oom api).Api.requested_bytes;
  let l = Api.ladder api in
  check "ladder climbed through young" true (l.Api.young_collections > 0);
  check "ladder climbed through full" true (l.Api.full_collections > 0);
  check "ladder climbed through emergency" true (l.Api.emergency_compactions > 0);
  check "reserve released before giving up" true (l.Api.reserve_releases > 0);
  check_int "exhaustion counted" 1 l.Api.exhaustions;
  (* Further calls are permitted and report the same condition. *)
  check "the next request fails too" true
    ((Api.alloc_fast api ~size:8192 ~nfields:0).id = Obj_model.null);
  check_int "second exhaustion counted" 2 l.Api.exhaustions

let test_api_idle () =
  let api, sim, _, _ = make_api () in
  Api.idle_until api 10_000.0;
  check_float "idle advanced" 10_000.0 (Sim.now sim)

(* Cross-collector replay can store through a handle the replaying
   collector already freed. The store is a no-op in the object model, and
   it must not reach the collector's barrier either: the stale handle has
   no address (G1 indexed block -1), and its recycled slot belongs to
   another object (LXR's field-logged bits). Checked for every collector,
   on a heap large enough for ZGC. *)
let test_api_write_freed_source () =
  List.iter
    (fun (name, factory) ->
      let heap = Heap.create (Heap_config.make ~heap_bytes:(8 * 1024 * 1024) ()) in
      let api = Api.create (Sim.create Cost_model.default) heap factory in
      let target = Api.alloc_fast api ~size:64 ~nfields:2 in
      Api.set_root api 0 target.id;
      let stale = Api.alloc_fast api ~size:64 ~nfields:4 in
      Heap.free_object heap stale;
      let reused = Api.alloc_fast api ~size:64 ~nfields:4 in
      Api.set_root api 1 reused.id;
      check_int (name ^ ": slot recycled") stale.slot reused.slot;
      for i = 0 to 3 do
        Obj_model.set_field reused i (if i mod 2 = 0 then target.id else Obj_model.null);
        Obj_model.set_field_logged reused i (i mod 2 = 1)
      done;
      let logged () = List.init 4 (Obj_model.field_logged reused) in
      let fields0 = Obj_model.fields_copy reused and logged0 = logged () in
      Api.flush api;
      for i = 0 to 3 do
        Api.write api stale i target.id
      done;
      check (name ^ ": fields untouched") true (Obj_model.fields_copy reused = fields0);
      check (name ^ ": logged bits untouched") true (logged () = logged0))
    Repro_harness.Collector_set.all

(* --- Hooks: trace sink and fault injector ------------------------------------- *)

(* With no tracer and no injector installed (a fresh [Sim]), the per-event
   entry points build no trace event and draw no fault: 10,000 stores,
   loads and root writes on a live object allocate nothing, flushes of
   the pending charge included. The release build inlines these bodies
   into the replayer, so ci.sh runs this group there too. *)
let test_hooks_off_allocate_nothing () =
  let api, sim, _, _ = make_api () in
  check "no tracer" false (Tracer.active (Sim.tracer sim));
  check "no injector" false (Fault.active (Sim.faults sim));
  let a = Api.alloc_fast api ~size:64 ~nfields:2 in
  let b = Api.alloc_fast api ~size:64 ~nfields:2 in
  Api.set_root api 0 a.id;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Api.write api a (i land 1) b.id;
    ignore (Sys.opaque_identity (Api.read api a 0));
    Api.set_root api 1 b.id
  done;
  check_float "minor words" 0.0 (Gc.minor_words () -. before)

(* A counting sink sees exactly one event per API call, named by
   [Tracer.name]. *)
let test_hooks_one_event_per_call () =
  let api, sim, _, _ = make_api () in
  let a = Api.alloc_fast api ~size:64 ~nfields:2 in
  let seen = ref [] in
  Sim.set_tracer sim (fun ev -> seen := Tracer.name ev :: !seen);
  let expect = ref [] in
  let call name f =
    f ();
    expect := name :: !expect;
    Alcotest.(check (list string)) (name ^ ": one event") !expect !seen
  in
  call "alloc" (fun () -> ignore (Api.alloc_fast api ~size:64 ~nfields:2));
  call "alloc-failed" (fun () ->
      ignore (Api.alloc_fast api ~size:(1 lsl 20) ~nfields:0));
  call "write" (fun () -> Api.write api a 0 a.id);
  call "read" (fun () -> ignore (Api.read api a 0));
  call "root" (fun () -> Api.set_root api 0 a.id);
  call "work" (fun () -> Api.work api ~ns:10.0);
  call "safepoint" (fun () -> Api.safepoint api);
  call "finish" (fun () -> Api.finish api)

(* Every class armed at rate 1 fires on every draw; the counters come
   out under the stats names and in the order [lxr_sim run --inject]
   prints them. *)
let test_hooks_fault_counters () =
  match
    Fault.of_spec ~seed:3
      "drop-barrier:1,skip-dec:1,rc-flip:1,remset:1,alloc-fail:1,rc-flip:0"
  with
  | Error msg -> Alcotest.fail msg
  | Ok f ->
    let classes =
      Fault.[ Drop_barrier; Skip_decrement; Flip_rc; Corrupt_remset; Fail_alloc ]
    in
    List.iteri
      (fun i cls ->
        for _ = 0 to i do
          ignore (Fault.fires f cls)
        done)
      classes;
    Alcotest.(check (list (pair string (float 0.0))))
      "counters"
      [ ("fault_dropped_barriers", 1.0);
        ("fault_skipped_decrements", 2.0);
        (* given twice: the last rate, 0, holds *)
        ("fault_flipped_rc", 0.0);
        ("fault_corrupted_remsets", 4.0);
        ("fault_forced_alloc_failures", 5.0) ]
      (Fault.counts_alist f);
    Alcotest.(check (list int)) "count" [ 1; 2; 0; 4; 5 ]
      (List.map (Fault.count f) classes);
    Alcotest.(check (list string)) "spec names"
      [ "drop-barrier"; "skip-dec"; "rc-flip"; "remset"; "alloc-fail" ]
      Fault.class_names;
    check "none fires nothing" false
      (List.exists (Fault.fires Fault.none) classes)

(* --- Cost model ----------------------------------------------------------------- *)

let test_cost_model_sanity () =
  let c = Cost_model.default in
  check "reads cheaper than traces" true (c.read_ns < c.trace_obj_ns);
  check "wb fast below wb slow" true (c.wb_fast_ns < c.wb_slow_ns);
  check "threads fit" true (c.mutator_threads + c.gc_threads <= 2 * c.cores);
  let c2 = { c with gc_threads = 2 } in
  check_int "override" 2 c2.gc_threads;
  check_int "others kept" c.cores c2.cores

(* --- The pause bracket ---------------------------------------------------- *)

let test_stw_bracket () =
  let base = Cost_model.default.pause_base_ns in
  let sim = Sim.create Cost_model.default in
  let labels = ref [] in
  Sim.set_on_pause_end sim (fun l -> labels := l :: !labels);
  Gc_kernels.stw sim (fun tc ->
      Trace_cost.add_parallel tc ~cost_ns:400.0;
      "first");
  check_int "one pause" 1 (Sim.pause_count sim);
  let wall, cpu = Sim.last_pause_cost sim in
  check_float "wall over the model's 4 threads" (base +. 100.0) wall;
  check_float "cpu" (base +. 400.0) cpu;
  check_float "clock" wall (Sim.now sim);
  Gc_kernels.stw ~gc_threads:1 sim (fun tc ->
      Trace_cost.add_parallel tc ~cost_ns:400.0;
      "serial");
  check_float "serial wall" (base +. 400.0) (fst (Sim.last_pause_cost sim));
  Alcotest.(check (list string)) "labels from the bodies" [ "serial"; "first" ] !labels;
  Alcotest.check_raises "nested pause"
    (Invalid_argument "Gc_kernels.stw: nested pause") (fun () ->
      Gc_kernels.stw sim (fun _ ->
          Gc_kernels.stw sim (fun _ -> "inner");
          "outer"))

let suite =
  [ ( "engine:trace_cost",
      [ Alcotest.test_case "parallel" `Quick test_trace_cost_parallel;
        Alcotest.test_case "frontier" `Quick test_trace_cost_frontier_limited;
        Alcotest.test_case "list pathology" `Quick test_trace_cost_linked_list_pathology ] );
    ( "engine:sim",
      [ Alcotest.test_case "flush" `Quick test_sim_flush_unsaturated;
        Alcotest.test_case "core stealing" `Quick test_sim_flush_core_stealing;
        Alcotest.test_case "conc budget" `Quick test_sim_conc_budget;
        Alcotest.test_case "interference" `Quick test_sim_interference;
        Alcotest.test_case "pause" `Quick test_sim_pause;
        Alcotest.test_case "idle" `Quick test_sim_idle;
        Alcotest.test_case "reset" `Quick test_sim_reset_measurement ] );
    ( "engine:api",
      [ Alcotest.test_case "alloc hooks" `Quick test_api_alloc_and_hooks;
        Alcotest.test_case "write barrier" `Quick test_api_write_barrier_order;
        Alcotest.test_case "work/flush" `Quick test_api_work_and_flush;
        Alcotest.test_case "roots" `Quick test_api_roots;
        Alcotest.test_case "oom" `Quick test_api_oom;
        Alcotest.test_case "write through freed handle" `Quick
          test_api_write_freed_source;
        Alcotest.test_case "idle" `Quick test_api_idle ] );
    ( "engine:hooks",
      [ Alcotest.test_case "off hooks allocate nothing" `Quick
          test_hooks_off_allocate_nothing;
        Alcotest.test_case "one event per API call" `Quick
          test_hooks_one_event_per_call;
        Alcotest.test_case "fault counters by class" `Quick
          test_hooks_fault_counters ] );
    ( "engine:misc",
      [ Alcotest.test_case "cost model" `Quick test_cost_model_sanity;
        Alcotest.test_case "pause bracket" `Quick test_stw_bracket ] ) ]
