(* The heap-integrity verifier and fault-injection harness:
   - a clean run of every workload x production collector has zero
     violations (no false positives);
   - every injected corruption class is detected;
   - recoverable faults (forced allocation failures) exercise the
     degradation ladder and still complete cleanly;
   - the ladder escalates in order and leaves no stale allocator state
     behind an `Oom. *)

open Repro_heap
open Repro_engine
module Verifier = Repro_verify.Verifier
module Runner = Repro_harness.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let null = Obj_model.null

(* --- Helpers ----------------------------------------------------------- *)

let mini_heap_bytes = 512 * 1024

(* A small deterministic LXR session: rooted table, churn, some garbage. *)
let run_mini ?(factory = Repro_lxr.Lxr.factory) seed =
  let heap = Heap.create (Heap_config.make ~heap_bytes:mini_heap_bytes ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap factory in
  let prng = Repro_util.Prng.create seed in
  let table = Api.alloc_fast api ~size:(16 + (8 * 32)) ~nfields:32 in
  Api.set_root api 0 table.id;
  for i = 1 to 4000 do
    let size = 16 + (16 * Repro_util.Prng.int prng 24) in
    let obj = Api.alloc_fast api ~size ~nfields:3 in
    if Repro_util.Prng.bool prng 0.08 then
      Api.write api table (Repro_util.Prng.int prng 32) obj.id;
    if i mod 500 = 0 then Api.safepoint api
  done;
  Api.finish api;
  if (Api.ladder api).Api.exhaustions > 0 then Alcotest.fail "heap exhausted";
  (heap, api)

let check_api api =
  Verifier.check_heap ~roots:(Api.roots api)
    ~introspect:(Api.collector api).Collector.introspect (Api.heap api)

let has_invariant inv vs =
  List.exists (fun (viol : Verifier.violation) -> viol.Verifier.invariant = inv) vs

let all_points = [ Verifier.Pre_pause; Verifier.Post_pause; Verifier.End_of_run ]

let run_injected ?(factory = Repro_lxr.Lxr.factory) ?(bench = "lusearch")
    ?(seed = 42) spec =
  let fault =
    match Fault.of_spec ~seed spec with
    | Ok f -> f
    | Error msg -> Alcotest.fail ("bad fault spec: " ^ msg)
  in
  let r =
    Runner.run ~seed ~scale:0.25 ~verify:all_points ~inject:fault
      ~workload:(Repro_mutator.Benchmarks.find bench) ~factory ~heap_factor:2.0
      ()
  in
  (r, fault)

let result_has_invariant inv (r : Runner.result) =
  List.exists
    (fun (_, _, (viol : Verifier.violation)) -> viol.Verifier.invariant = inv)
    r.violations

(* LXR with every SATB trigger disabled: reference counts stay exact for
   the whole run ([counts_exact] never flips), so the overcount check is
   live at every safepoint. *)
let lxr_no_satb =
  Repro_lxr.Lxr.factory_with ~name:"lxr-nosatbtrig"
    ~config:(fun c ->
      { c with
        Repro_lxr.Lxr_config.clean_blocks_trigger = -1;
        wastage_threshold = 10.0;
        satb_backstop_pauses = max_int })
    ()

(* --- Safepoint parsing -------------------------------------------------- *)

let test_points_of_string () =
  (match Verifier.points_of_string "pre,post,end" with
  | Ok [ Verifier.Pre_pause; Verifier.Post_pause; Verifier.End_of_run ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "pre,post,end");
  (match Verifier.points_of_string "all" with
  | Ok points ->
    check_int "all = three points" 3 (List.length points)
  | Error _ -> Alcotest.fail "all");
  (match Verifier.points_of_string " post " with
  | Ok [ Verifier.Post_pause ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "whitespace tolerated");
  (match Verifier.points_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted");
  match Verifier.points_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted"

(* --- Direct corruption: the verifier sees what we break ----------------- *)

let test_clean_mini_has_no_violations () =
  let _, api = run_mini 3 in
  check "clean heap passes" true (check_api api = [])

let test_detects_orphan_rc_entry () =
  let heap, api = run_mini 5 in
  let cfg = heap.Heap.cfg in
  (* A count in a Free block is both an orphan and a dirty free block. *)
  let free_block = ref (-1) in
  for b = Heap_config.blocks cfg - 1 downto 0 do
    if Blocks.state heap.blocks b = Blocks.Free then free_block := b
  done;
  check "found a free block" true (!free_block >= 0);
  Rc_table.set heap.rc cfg (Addr.block_start cfg !free_block) 1;
  let vs = check_api api in
  check "orphan count detected" true (has_invariant "orphan-count" vs);
  check "dirty free block detected" true (has_invariant "free-block-rc-zero" vs)

let test_detects_dangling_root () =
  let heap, api = run_mini 7 in
  (* Free a rooted object behind the collector's back. *)
  let table = Obj_model.Registry.find_live heap.registry (Api.roots api).(0) in
  Heap.free_object heap table;
  let vs = check_api api in
  check "dangling root detected" true (has_invariant "root-live" vs)

let test_detects_punched_straddle_marker () =
  let heap, api = run_mini 9 in
  let cfg = heap.Heap.cfg in
  let victim = ref None in
  (* The victim needs an interior line (first+1 <= last-1): only interior
     lines carry straddle markers, so a 2-line object has nothing to punch. *)
  Obj_model.Registry.iter
    (fun o ->
      if
        !victim = None
        && (not (Heap.is_los heap o))
        && o.size > cfg.line_bytes
        && Rc_table.get heap.rc cfg (Obj_model.addr o) > 0
        && (let first, last =
              Addr.lines_covered cfg ~addr:(Obj_model.addr o) ~size:o.size
            in
            last > first + 1)
      then victim := Some o)
    heap.registry;
  match !victim with
  | None -> Alcotest.fail "no live straddling object in mini run"
  | Some o ->
    let first, last =
      Addr.lines_covered cfg ~addr:(Obj_model.addr o) ~size:o.size
    in
    check "object straddles" true (last > first + 1);
    Rc_table.set heap.rc cfg (Addr.line_start cfg (first + 1)) 0;
    let vs = check_api api in
    check "punched straddle detected" true
      (has_invariant "straddle-marker-missing" vs)

(* Flip one reserve-membership byte: a block the reserve stack does not
   hold now claims membership (or, on a heap with a reserve, a held
   block loses it). *)
let test_detects_reserve_membership_flip () =
  let heap, api = run_mini 11 in
  check "mini run keeps a reserve" true (not (Repro_util.Vec.is_empty heap.Heap.reserve));
  let b = Repro_util.Vec.get heap.Heap.reserve 0 in
  Bytes.set heap.Heap.reserve_member b '\000';
  let vs = check_api api in
  check "cleared membership detected" true (has_invariant "reserve-membership" vs);
  Bytes.set heap.Heap.reserve_member b '\001';
  check "restored heap passes" true (check_api api = []);
  let outsider = ref (-1) in
  for x = Heap_config.blocks heap.cfg - 1 downto 0 do
    if not (Heap.in_reserve heap x) then outsider := x
  done;
  Bytes.set heap.Heap.reserve_member !outsider '\001';
  check "spurious membership detected" true
    (has_invariant "reserve-membership" (check_api api))

(* --- Injected corruption matrix ----------------------------------------- *)

let test_inject_drop_barrier_detected () =
  let r, fault = run_injected "drop-barrier:0.002" in
  check "barriers were dropped" true (fault.Fault.counts.dropped_barriers > 0);
  check "run flagged" true (not r.ok);
  check "detected as overcount or dangling ref" true
    (result_has_invariant "overcount" r
    || result_has_invariant "no-dangling-ref" r)

let test_inject_skip_decrement_detected () =
  let r, fault = run_injected ~factory:lxr_no_satb "skip-dec:0.05" in
  check "decrements were skipped" true (fault.Fault.counts.skipped_decrements > 0);
  check "run flagged" true (not r.ok);
  check "detected as overcount" true (result_has_invariant "overcount" r)

let test_inject_rc_flip_detected () =
  let r, fault = run_injected "rc-flip:0.002" in
  check "rc entries were flipped" true (fault.Fault.counts.flipped_rc > 0);
  check "run flagged" true (not r.ok);
  check "detected in the rc cross-check" true
    (result_has_invariant "orphan-count" r
    || result_has_invariant "straddle-marker-value" r
    || result_has_invariant "straddle-marker-missing" r)

let test_inject_remset_corruption_detected () =
  let r, fault = run_injected "remset:1.0" in
  check "remset entries were corrupted" true
    (fault.Fault.counts.corrupted_remsets > 0);
  check "run flagged" true (not r.ok);
  check "detected as out-of-range field" true
    (result_has_invariant "field-in-range" r)

let test_inject_alloc_fail_recovers () =
  let r, fault = run_injected "alloc-fail:0.002" in
  check "allocation failures were forced" true
    (fault.Fault.counts.forced_alloc_failures > 0);
  check "run still ok" true r.ok;
  check "no violations" true (r.violations = []);
  check "ladder exercised" true
    (match List.assoc_opt "ladder_young" r.ladder with
    | Some v -> v > 0.0
    | None -> false);
  check "no exhaustion" true
    (match List.assoc_opt "ladder_oom" r.ladder with
    | Some v -> v = 0.0
    | None -> false)

(* A fault stream is deterministic in its seed. *)
let test_injection_deterministic () =
  let a, _ = run_injected ~seed:11 "drop-barrier:0.002" in
  let b, _ = run_injected ~seed:11 "drop-barrier:0.002" in
  check_int "same violations" (List.length a.violations)
    (List.length b.violations);
  check "same wall" true (a.wall_ns = b.wall_ns)

(* --- Clean verification matrix: no false positives ---------------------- *)

let test_clean_matrix_no_false_positives () =
  let collectors =
    [ ("lxr", Repro_lxr.Lxr.factory);
      ("g1", Repro_collectors.G1.factory);
      ("shenandoah", Repro_collectors.Conc_mark_evac.shenandoah) ]
  in
  List.iter
    (fun bench ->
      List.iter
        (fun (name, factory) ->
          let r =
            Runner.run ~seed:42 ~scale:0.1 ~verify:all_points
              ~workload:(Repro_mutator.Benchmarks.find bench) ~factory
              ~heap_factor:2.0 ()
          in
          let label = Printf.sprintf "%s under %s at 2x" bench name in
          check (label ^ ": ok") true r.ok;
          check (label ^ ": checked") true (r.verifier_checks > 0);
          check_int (label ^ ": zero violations") 0 (List.length r.violations))
        collectors)
    Repro_mutator.Benchmarks.names

(* --- Degradation ladder -------------------------------------------------- *)

(* A collector that never frees anything records the escalation order. *)
let test_ladder_escalation_order () =
  let pressures = ref [] in
  let factory _sim _heap ~roots:_ =
    let conc_active, conc_run = Collector.no_concurrency () in
    { Collector.name = "never-collects";
      on_alloc = (fun _ -> ());
      on_write = (fun _ _ _ -> ());
      write_extra_ns = 0.0;
      read_extra_ns = 0.0;
      poll = (fun () -> ());
      collect_for_alloc = (fun p -> pressures := p :: !pressures);
      conc_active;
      conc_run;
      conc_backlog = (fun () -> 0);
      on_finish = (fun () -> ());
      stats = (fun () -> []);
      introspect = Collector.no_introspection }
  in
  let heap = Heap.create (Heap_config.make ~heap_bytes:(128 * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap factory in
  let rec fill n =
    if n > 1000 then Alcotest.fail "heap never filled"
    else begin
      let obj = Api.alloc_fast api ~size:8192 ~nfields:0 in
      if obj.id <> null then begin
        Api.set_root api (n mod 200) obj.id;
        fill (n + 1)
      end
    end
  in
  fill 0;
  check "requested size reported" true
    ((Api.last_oom api).Api.requested_bytes = 8192);
  (match List.rev !pressures with
  | [ Collector.Young; Collector.Full; Collector.Emergency ] -> ()
  | other ->
    Alcotest.fail
      (Printf.sprintf "unexpected escalation: [%s]"
         (String.concat "; " (List.map Collector.pressure_name other))));
  let l = Api.ladder api in
  check_int "young rung count" 1 l.Api.young_collections;
  check_int "full rung count" 1 l.Api.full_collections;
  check_int "emergency rung count" 1 l.Api.emergency_compactions;
  check_int "reserve released" 1 l.Api.reserve_releases;
  check_int "exhaustion recorded" 1 l.Api.exhaustions

(* Exhaust each real collector against live data; the `Oom must be clean:
   dropping the roots must make allocation succeed again (no stale
   allocator or ladder state). *)
let oom_and_recover name factory =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(256 * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap factory in
  let rec fill n =
    if n > 1000 then Alcotest.fail (name ^ ": heap never filled")
    else begin
      let obj = Api.alloc_fast api ~size:2048 ~nfields:0 in
      if obj.id = null then n
      else begin
        Api.set_root api (n mod 200) obj.id;
        fill (n + 1)
      end
    end
  in
  let n = fill 0 in
  check (name ^ ": allocated before exhaustion") true (n > 0);
  check (name ^ ": every rung tried") true
    ((Api.ladder api).Api.emergency_compactions >= 1);
  check (name ^ ": exhaustion counted") true
    ((Api.ladder api).Api.exhaustions >= 1);
  (* Drop every root (including the engine's scratch slot) and retry. *)
  for slot = 0 to Api.root_slots - 1 do
    Api.set_root api slot null
  done;
  if (Api.alloc_fast api ~size:2048 ~nfields:0).id = null then
    Alcotest.fail (name ^ ": no recovery after dropping roots")

let test_oom_ladder_all_collectors () =
  List.iter
    (fun (name, factory) -> oom_and_recover name factory)
    [ ("lxr", Repro_lxr.Lxr.factory);
      ("serial", Repro_collectors.Mark_sweep.serial);
      ("g1", Repro_collectors.G1.factory);
      ("shenandoah", Repro_collectors.Conc_mark_evac.shenandoah);
      ("semispace", Repro_collectors.Semispace.factory) ]

(* The emergency rung's compaction can free a block touched earlier in
   the epoch (or one queued for a lazy decrement sweep), and its
   [ensure_reserve] can then adopt that block. LXR's young and lazy
   sweeps must skip it rather than dissolve it (In_use, all counts
   zero); dropping either guard fails this test. Drive LXR through every
   rung with the verifier on; check that the hazard occurs and that
   every reserve block is still In_use after every collection. *)
let test_lxr_reserve_never_swept () =
  let reserve_touched = ref 0 in
  let factory sim heap ~roots =
    let c = Repro_lxr.Lxr.factory sim heap ~roots in
    let guard what =
      let touched = Heap.touched_blocks heap in
      Repro_util.Vec.iter
        (fun b ->
          if Array.mem b touched then incr reserve_touched;
          if Blocks.state heap.Heap.blocks b <> Blocks.In_use then
            Alcotest.failf "reserve block %d dissolved %s" b what)
        heap.Heap.reserve
    in
    { c with
      Collector.poll =
        (fun () ->
          c.Collector.poll ();
          guard "by a poll");
      collect_for_alloc =
        (fun p ->
          c.Collector.collect_for_alloc p;
          guard ("by the " ^ Collector.pressure_name p ^ " rung")) }
  in
  let heap = Heap.create (Heap_config.make ~heap_bytes:(1024 * 1024) ()) in
  let api = Api.create (Sim.create Cost_model.default) heap factory in
  let v = Verifier.attach ~points:all_points api in
  let prng = Repro_util.Prng.create 1 in
  (* Medium objects rotate through the root slots, so every block holds a
     mix of live and dead; every 97th request is a large object that
     needs whole free blocks, which only compaction can make. *)
  for i = 1 to 6000 do
    let size =
      if i mod 97 = 0 then 3 * 32 * 1024 else 64 + (64 * Repro_util.Prng.int prng 24)
    in
    let obj = Api.alloc_fast api ~size ~nfields:2 in
    if obj.id = null then
      for slot = 1 to 150 do
        if slot mod 2 = 0 then Api.set_root api slot null
      done
    else if Repro_util.Prng.bool prng 0.5 then
      Api.set_root api (1 + Repro_util.Prng.int prng 150) obj.id
  done;
  Api.finish api;
  Verifier.finish v;
  let l = Api.ladder api in
  check "young rung climbed" true (l.Api.young_collections > 0);
  check "full rung climbed" true (l.Api.full_collections > 0);
  check "emergency rung climbed" true (l.Api.emergency_compactions > 0);
  check "a touched block was adopted into the reserve" true (!reserve_touched > 0);
  check "verifier clean" true (Verifier.ok v)

(* A workload pushed far past its heap reports the exhaustion as data —
   no exception escapes the runner. *)
let test_runner_reports_oom () =
  let r =
    Runner.run ~seed:42 ~scale:0.3
      ~workload:(Repro_mutator.Benchmarks.find "lusearch")
      ~factory:Repro_collectors.Mark_sweep.serial ~heap_factor:0.3 ()
  in
  check "not ok" true (not r.ok);
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "error mentions memory" true
    (match r.error with
    | Some msg -> contains ~sub:"memory" (String.lowercase_ascii msg)
    | None -> false)

(* --- Session plumbing ---------------------------------------------------- *)

let test_end_of_run_only_session () =
  let heap = Heap.create (Heap_config.make ~heap_bytes:mini_heap_bytes ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap Repro_lxr.Lxr.factory in
  let v = Verifier.attach ~points:[ Verifier.End_of_run ] api in
  let table = Api.alloc_fast api ~size:128 ~nfields:8 in
  Api.set_root api 0 table.id;
  for _ = 1 to 2000 do
    ignore (Api.alloc_fast api ~size:64 ~nfields:2)
  done;
  Api.finish api;
  check_int "no checks before finish" 0 (Verifier.checks_run v);
  Verifier.finish v;
  check_int "one end-of-run check" 1 (Verifier.checks_run v);
  check "clean" true (Verifier.ok v);
  check "report mentions totals" true
    (String.length (Verifier.report v) > 0)

let test_max_violations_cap () =
  let heap, api = run_mini 15 in
  let cfg = heap.Heap.cfg in
  (* Plant orphan counts across many free granules of a Free block. *)
  let free_block = ref (-1) in
  for b = Heap_config.blocks cfg - 1 downto 0 do
    if Blocks.state heap.blocks b = Blocks.Free then free_block := b
  done;
  check "found a free block" true (!free_block >= 0);
  let start = Addr.block_start cfg !free_block in
  for g = 0 to 9 do
    Rc_table.set heap.rc cfg (start + (g * cfg.granule_bytes)) 1
  done;
  let v = Verifier.attach ~max_violations:3 ~points:[ Verifier.End_of_run ] api in
  Verifier.finish v;
  check "all violations counted" true (Verifier.total_violations v > 3);
  check_int "retention capped" 3 (List.length (Verifier.violations v))

let suite =
  [ ( "verify:unit",
      [ Alcotest.test_case "safepoint parsing" `Quick test_points_of_string;
        Alcotest.test_case "clean mini run" `Quick
          test_clean_mini_has_no_violations;
        Alcotest.test_case "orphan rc entry" `Quick test_detects_orphan_rc_entry;
        Alcotest.test_case "dangling root" `Quick test_detects_dangling_root;
        Alcotest.test_case "punched straddle marker" `Quick
          test_detects_punched_straddle_marker;
        Alcotest.test_case "reserve membership flip" `Quick
          test_detects_reserve_membership_flip;
        Alcotest.test_case "end-of-run session" `Quick
          test_end_of_run_only_session;
        Alcotest.test_case "violation cap" `Quick test_max_violations_cap ] );
    ( "verify:injection",
      [ Alcotest.test_case "drop-barrier detected" `Quick
          test_inject_drop_barrier_detected;
        Alcotest.test_case "skip-dec detected" `Quick
          test_inject_skip_decrement_detected;
        Alcotest.test_case "rc-flip detected" `Quick test_inject_rc_flip_detected;
        Alcotest.test_case "remset corruption detected" `Quick
          test_inject_remset_corruption_detected;
        Alcotest.test_case "alloc-fail recovers" `Quick
          test_inject_alloc_fail_recovers;
        Alcotest.test_case "deterministic fault stream" `Quick
          test_injection_deterministic ] );
    ( "verify:clean-matrix",
      [ Alcotest.test_case "all workloads x production collectors" `Slow
          test_clean_matrix_no_false_positives ] );
    ( "verify:ladder",
      [ Alcotest.test_case "escalation order" `Quick test_ladder_escalation_order;
        Alcotest.test_case "oom and recovery per collector" `Quick
          test_oom_ladder_all_collectors;
        Alcotest.test_case "lxr reserve never swept" `Quick
          test_lxr_reserve_never_swept;
        Alcotest.test_case "runner reports oom" `Quick test_runner_reports_oom ] )
  ]
