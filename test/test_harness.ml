(* Tests for the runner, the LBO methodology, and the experiment
   generators (smoke-level, tiny scales). *)

open Repro_harness
open Test_support

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let small_run ?(collector = Repro_lxr.Lxr.factory) ?(factor = 2.0) name =
  Runner.run ~seed:5 ~scale:0.03 ~workload:(Repro_mutator.Benchmarks.find name)
    ~factory:collector ~heap_factor:factor ()

(* --- Runner -------------------------------------------------------------------- *)

let test_runner_result_fields () =
  let r = small_run "fop" in
  check "ok" true r.ok;
  check "collector name" true (r.collector = "LXR");
  check "workload name" true (r.workload = "fop");
  check "heap factor recorded" true (r.heap_factor = 2.0);
  check "heap sized" true
    (r.heap_bytes >= (Repro_mutator.Benchmarks.find "fop").Repro_mutator.Workload.min_heap_bytes);
  check "cpu accounted" true (r.mutator_cpu_ns > 0.0);
  check "stats exported" true (List.length r.collector_stats > 0)

let test_runner_stat_lookup () =
  let r = small_run "fop" in
  check "present stat" true
    (match Runner.stat r "rc_pauses" with Some v -> v >= 0.0 | None -> false);
  check "unknown stat is absent" true (Runner.stat r "no_such_counter" = None)

let test_runner_unsupported () =
  let r = small_run ~collector:Repro_collectors.Conc_mark_evac.zgc "avrora" in
  check "not ok" true (not r.ok);
  check "error recorded" true (r.error <> None);
  check_float "qps zero on failure" 0.0 (Runner.qps r)

let test_runner_heap_below_one_block () =
  let r = small_run ~factor:0.001 "lusearch" in
  check "not ok" true (not r.ok);
  check "error recorded" true (r.error <> None)

(* Each of these used to run the same minimal workload as a valid
   scale; recording one wrote a trace whose header carried it. *)
let test_runner_bad_scale () =
  let path = Filename.temp_file "bad-scale" ".lxrtrace" in
  Sys.remove path;
  List.iter
    (fun scale ->
      let r =
        Runner.run ~seed:5 ~scale ~record_to:path
          ~workload:(Repro_mutator.Benchmarks.find "lusearch")
          ~factory:Repro_lxr.Lxr.factory ~heap_factor:2.0 ()
      in
      let what = Printf.sprintf "scale %g" scale in
      check (what ^ " fails") true (not r.ok);
      check (what ^ " is named") true
        (match r.error with
        | Some m -> String.length m >= 5 && String.sub m 0 5 = "scale"
        | None -> false);
      check (what ^ " writes no trace") true (not (Sys.file_exists path)))
    [ Float.nan; 0.0; -1.0; Float.infinity ]

let test_runner_heap_config_override () =
  let r =
    Runner.run ~seed:5 ~scale:0.03
      ~heap_config:(fun ~heap_bytes ->
        Repro_heap.Heap_config.make ~block_bytes:(16 * 1024) ~heap_bytes ())
      ~workload:(Repro_mutator.Benchmarks.find "fop")
      ~factory:Repro_lxr.Lxr.factory ~heap_factor:2.0 ()
  in
  check "runs with 16K blocks" true r.ok

let test_runner_qps () =
  let r = small_run "lusearch" in
  check "latency workload has qps" true (Runner.qps r > 0.0)

(* --- LBO ------------------------------------------------------------------------- *)

let fake_result ~wall ~stw ~mcpu ~gcpu ~stwcpu ~ok : Runner.result =
  { workload = "w"; collector = "c"; heap_factor = 2.0; heap_bytes = 0;
    ok; error = None;
    wall_ns = wall; mutator_cpu_ns = mcpu; gc_cpu_ns = gcpu;
    stw_wall_ns = stw; stw_cpu_ns = stwcpu;
    alloc_stall_ns = 0.0; barrier_cpu_ns = 0.0;
    pause_count = 0; pauses = Repro_util.Histogram.create ();
    latency = None; requests = 0; alloc_bytes = 0; alloc_count = 0;
    survived_bytes = 0; large_bytes = 0; collector_stats = [];
    ladder = []; violations = []; verifier_checks = 0 }

let test_lbo_values () =
  let r = fake_result ~wall:110.0 ~stw:10.0 ~mcpu:200.0 ~gcpu:50.0 ~stwcpu:30.0 ~ok:true in
  check_float "wall metric" 110.0 (Lbo.value Lbo.Wall r);
  check_float "cycles metric" 250.0 (Lbo.value Lbo.Cycles r)

let test_lbo_baseline () =
  let a = fake_result ~wall:110.0 ~stw:10.0 ~mcpu:0.0 ~gcpu:0.0 ~stwcpu:0.0 ~ok:true in
  let b = fake_result ~wall:150.0 ~stw:60.0 ~mcpu:0.0 ~gcpu:0.0 ~stwcpu:0.0 ~ok:true in
  (* Baselines subtract STW costs: min(100, 90) = 90. *)
  (match Lbo.baseline Lbo.Wall [ a; b ] with
  | Some base -> check_float "stripped minimum" 90.0 base
  | None -> Alcotest.fail "baseline exists");
  let failed = fake_result ~wall:0.0 ~stw:0.0 ~mcpu:0.0 ~gcpu:0.0 ~stwcpu:0.0 ~ok:false in
  check "failures ignored" true (Lbo.baseline Lbo.Wall [ failed ] = None)

let test_lbo_overhead () =
  let r = fake_result ~wall:120.0 ~stw:20.0 ~mcpu:0.0 ~gcpu:0.0 ~stwcpu:0.0 ~ok:true in
  (match Lbo.overhead Lbo.Wall ~baseline:100.0 r with
  | Some o -> check_float "ratio" 1.2 o
  | None -> Alcotest.fail "overhead exists");
  let failed = fake_result ~wall:0.0 ~stw:0.0 ~mcpu:0.0 ~gcpu:0.0 ~stwcpu:0.0 ~ok:false in
  check "failed run" true (Lbo.overhead Lbo.Wall ~baseline:100.0 failed = None)

let test_lbo_overhead_at_least_one_on_baseline_run () =
  (* The run that produced the baseline has overhead >= 1 by construction. *)
  let a = fake_result ~wall:110.0 ~stw:10.0 ~mcpu:0.0 ~gcpu:0.0 ~stwcpu:0.0 ~ok:true in
  match Lbo.baseline Lbo.Wall [ a ] with
  | Some base ->
    (match Lbo.overhead Lbo.Wall ~baseline:base a with
    | Some o -> check "o >= 1" true (o >= 1.0)
    | None -> Alcotest.fail "overhead")
  | None -> Alcotest.fail "baseline"

(* --- Experiments (smoke) ------------------------------------------------------------ *)

let tiny = { Experiments.scale = 0.02; iterations = 1; seed = 9 }

let test_experiment_names () =
  Alcotest.(check int) "fourteen experiments" 14 (List.length Experiments.names);
  List.iter
    (fun n -> check (n ^ " resolvable") true (Experiments.by_name n <> None))
    Experiments.names;
  check "unknown" true (Experiments.by_name "table9" = None)

let test_table1_smoke () =
  let s = Experiments.table1 tiny in
  check "mentions lusearch" true (contains s "lusearch");
  check "has shenandoah 10x row" true (contains s "Shenandoah 10x")

let test_table3_smoke () =
  let s = Experiments.table3 tiny in
  List.iter
    (fun n -> check ("row " ^ n) true (contains s n))
    [ "cassandra"; "xalan"; "zxing" ]

let test_sensitivity_smoke () =
  (* Run the cheapest structural check: the experiment renders with the
     expected configuration rows. Uses a tiny scale to stay fast. *)
  let s = Experiments.sensitivity { tiny with scale = 0.01 } in
  check "block sizes" true (contains s "64 KB blocks");
  check "rc bits" true (contains s "8 RC bits");
  check "buffer" true (contains s "128-entry buffer");
  check "ablation" true (contains s "fixed allocation trigger")

(* The cells of column [name], one per data row of a rendered table. *)
let column table name =
  let cells line = List.map String.trim (String.split_on_char '|' line) in
  match
    List.filter
      (fun l -> String.length l > 0 && l.[0] = '|')
      (String.split_on_char '\n' table)
  with
  | [] -> Alcotest.fail "no table rows"
  | header :: rows ->
    let rec index i = function
      | [] -> Alcotest.failf "no column %S" name
      | c :: _ when c = name -> i
      | _ :: rest -> index (i + 1) rest
    in
    let i = index 0 (cells header) in
    List.map (fun r -> List.nth (cells r) i) rows

let at_most_100 name cell =
  match float_of_string_opt cell with
  | Some v -> check (Printf.sprintf "%s %s <= 100" name cell) true (v <= 100.0)
  | None -> Alcotest.(check string) (name ^ " blank") "-" cell

(* Each of these columns is a share of a whole, so no cell exceeds 100.
   In-pause % divides the records pauses folded by all records folded in
   the measurement window: pauses also fold records journaled before the
   window opened. Table 7 fails outright on a missing LXR counter. *)
let journal_flood = lazy (Experiments.journal_flood tiny)

let test_percent_columns () =
  let t7 = Experiments.table7 tiny in
  List.iter
    (fun name -> List.iter (at_most_100 name) (column t7 name))
    [ "SATB%"; "!Lazy%"; "Young"; "Old"; "SATB"; "Stuck" ];
  let in_pause = column (Lazy.force journal_flood) "In-pause %" in
  check "journal-rc rows report a share" true (List.exists (( <> ) "-") in_pause);
  List.iter (at_most_100 "In-pause %") in_pause

(* G1 has no write-barrier slow path: its cell is blank, not a zero. *)
let test_absent_counter_blank () =
  let t = Lazy.force journal_flood in
  let rows = List.combine (column t "Collector") (column t "WB slow") in
  let cells name = List.filter_map (fun (c, v) -> if c = name then Some v else None) rows in
  check "g1 rows present" true (cells "G1" <> []);
  List.iter (Alcotest.(check string) "g1 WB slow" "-") (cells "G1");
  List.iter
    (fun v -> check ("lxr WB slow " ^ v) true (float_of_string_opt v <> None))
    (cells "LXR")

let suite =
  [ ( "harness:runner",
      [ Alcotest.test_case "result fields" `Quick test_runner_result_fields;
        Alcotest.test_case "stat lookup" `Quick test_runner_stat_lookup;
        Alcotest.test_case "unsupported" `Quick test_runner_unsupported;
        Alcotest.test_case "heap below one block" `Quick
          test_runner_heap_below_one_block;
        Alcotest.test_case "bad scale" `Quick test_runner_bad_scale;
        Alcotest.test_case "heap override" `Quick test_runner_heap_config_override;
        Alcotest.test_case "qps" `Quick test_runner_qps ] );
    ( "harness:lbo",
      [ Alcotest.test_case "values" `Quick test_lbo_values;
        Alcotest.test_case "baseline" `Quick test_lbo_baseline;
        Alcotest.test_case "overhead" `Quick test_lbo_overhead;
        Alcotest.test_case "baseline bound" `Quick test_lbo_overhead_at_least_one_on_baseline_run ] );
    ( "harness:experiments",
      [ Alcotest.test_case "names" `Quick test_experiment_names;
        Alcotest.test_case "table1" `Slow test_table1_smoke;
        Alcotest.test_case "table3" `Slow test_table3_smoke;
        Alcotest.test_case "sensitivity" `Slow test_sensitivity_smoke;
        Alcotest.test_case "percent columns" `Slow test_percent_columns;
        Alcotest.test_case "absent counter blank" `Slow test_absent_counter_blank ] ) ]
