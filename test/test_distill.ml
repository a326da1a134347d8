(* Tests for the distilled-cost accounting (Repro_harness.Distill, its
   Report renderers and the ideal baseline, Repro_collectors.Ideal), the
   online policy controllers (lib/policy), the Lxr_config knob table,
   and the two adversarial workloads. *)

module Distill = Repro_harness.Distill
module Report = Repro_harness.Report
module Controller = Repro_policy.Controller
module Config = Repro_lxr.Lxr_config
module Runner = Repro_harness.Runner
module Collector_set = Repro_harness.Collector_set

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bench = Repro_mutator.Benchmarks.find

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let corpus =
  [ "corpus/lusearch.lxrtrace"; "corpus/luindex.lxrtrace";
    "corpus/xalan.lxrtrace" ]

let load path =
  match Repro_trace.Trace_format.of_file path with
  | Ok t -> t
  | Error msg -> Alcotest.failf "trace %s failed to load: %s" path msg

let find_factory name =
  match Collector_set.find name with
  | Ok f -> f
  | Error msg -> Alcotest.fail msg

(* Every costed lane the differ also exercises, plus LXR. *)
let lanes = "lxr" :: List.map fst Collector_set.non_lxr

(* Replays are deterministic, so memoize (trace, collector) across the
   exhaustive sweep and the qcheck property. *)
let replay_tbl : (string * string, Runner.result) Hashtbl.t =
  Hashtbl.create 64

let replay path name =
  match Hashtbl.find_opt replay_tbl (path, name) with
  | Some r -> r
  | None ->
    let r =
      Runner.replay ~trace:(load path) ~factory:(find_factory name) ()
    in
    Hashtbl.add replay_tbl (path, name) r;
    r

let distilled path name =
  let d =
    { Distill.name; real = replay path name; ideal = replay path "ideal" }
  in
  if Distill.ok d then Some d else None

(* --- Ideal baseline ----------------------------------------------------- *)

let test_ideal_is_free () =
  let r =
    Runner.run ~seed:7 ~scale:0.2 ~workload:(bench "lusearch")
      ~factory:(find_factory "ideal") ~heap_factor:1.5 ()
  in
  check "ideal run succeeds" true r.ok;
  check "ideal charges no GC CPU" true (r.gc_cpu_ns = 0.0);
  check "ideal has no pauses" true
    (r.stw_wall_ns = 0.0 && r.pause_count = 0);
  check "ideal has no barrier cost" true (r.barrier_cpu_ns = 0.0)

let test_ideal_registered_not_in_all () =
  check "ideal resolves" true (Result.is_ok (Collector_set.find "ideal"));
  check "ideal not in the evaluation matrix" true
    (not (List.mem_assoc "ideal" Collector_set.non_lxr));
  check "ideal excluded from lockstep" false (Collector_set.lockstep_ok "IDEAL");
  check "real collectors lockstep" true (Collector_set.lockstep_ok "lxr")

(* --- Distilled-cost bounds over the corpus ------------------------------- *)

let bounds_hold (d : Distill.t) =
  let wall = Distill.distilled_wall_ns d in
  let cpu = Distill.distilled_cpu_ns d in
  wall >= 0.0
  && wall <= d.real.wall_ns
  && cpu >= 0.0
  && cpu <= Distill.total_cpu d.real
  && Distill.distilled_stall_ns d >= 0.0
  && Distill.barrier_ns d >= 0.0

let test_corpus_bounds () =
  let checked = ref 0 in
  List.iter
    (fun path ->
      List.iter
        (fun name ->
          match distilled path name with
          | None -> () (* a refused heap is data, not a bounds violation *)
          | Some d ->
            incr checked;
            if not (bounds_hold d) then
              Alcotest.failf "distilled bounds violated for %s on %s" name
                path)
        lanes)
    corpus;
  check "most lanes produced accounting" true (!checked >= 20)

let prop_distilled_bounds =
  QCheck.Test.make ~name:"distilled cost in [0, total] on corpus lanes"
    ~count:60
    QCheck.(pair (int_bound (List.length corpus - 1))
              (int_bound (List.length lanes - 1)))
    (fun (ti, ci) ->
      let path = List.nth corpus ti in
      let name = List.nth lanes ci in
      match distilled path name with
      | None -> true
      | Some d -> bounds_hold d)

(* --- Rows and their renderers ------------------------------------------- *)

(* One row that ran and one refused heap (ZGC's 4 MB minimum), against
   one shared baseline run. *)
let test_rows_render () =
  let workload =
    { (bench "lusearch") with Repro_mutator.Workload.request = None }
  in
  let rows =
    Distill.against
      [ ("lxr", find_factory "lxr"); ("zgc", find_factory "zgc") ]
      ~run:(fun factory ->
        Runner.run ~seed:7 ~scale:0.02 ~workload ~factory ~heap_factor:2.0 ())
  in
  let lxr, zgc =
    match rows with
    | [ lxr; zgc ] -> (lxr, zgc)
    | _ -> Alcotest.fail "one row per contender"
  in
  check "both rows share the baseline run" true (lxr.ideal == zgc.ideal);
  check "the LXR row ran" true (Distill.ok lxr);
  check "the ZGC row failed" false (Distill.ok zgc);
  Alcotest.(check string) "a row that ran names its collector" "LXR"
    (Distill.collector lxr);
  Alcotest.(check string) "a failed row keeps the contender's name" "zgc"
    (Distill.collector zgc);
  let lxr_json, zgc_json =
    match String.split_on_char '\n' (Report.distill_json rows) with
    | [ "["; lxr_json; zgc_json; "]"; "" ] -> (lxr_json, zgc_json)
    | _ -> Alcotest.fail "one JSON line per row"
  in
  check "LXR row is ok" true (contains lxr_json {|"ok": true|});
  check "LXR row carries its real run" true
    (contains lxr_json {|"real": {"collector": "LXR", |});
  check "refused row is not ok" true (contains zgc_json {|"ok": false|});
  check "refused row carries its error" true
    (contains zgc_json {|"error": "unsupported: ZGC |});
  check "refused row has no real run" false (contains zgc_json {|"real"|});
  check "table prints the refusal" true
    (contains (Report.distill_table ~title:"t" rows)
       "FAILED: unsupported: ZGC");
  check "markdown prints the refusal" true
    (contains (Report.distill_markdown rows)
       "| zgc | FAILED: unsupported: ZGC")

(* --- Knob table --------------------------------------------------------- *)

let probe () =
  Config.scaled_default ~heap_bytes:(32 * 1024 * 1024) ~block_bytes:32768

let apply_override spec =
  Result.map
    (fun (k, v) -> k.Config.k_set (probe ()) v)
    (Config.parse_override spec)

let test_knob_override () =
  (match apply_override "wastage_threshold=0.1" with
  | Ok c -> check "float knob applied" true (c.Config.wastage_threshold = 0.1)
  | Error e -> Alcotest.fail e);
  (match apply_override "evacuate_young=off" with
  | Ok c -> check "bool knob applied" false c.Config.evacuate_young
  | Error e -> Alcotest.fail e);
  (match apply_override "increment_threshold=0" with
  | Ok c ->
    check "0 disables an optional trigger" true
      (c.Config.increment_threshold = None)
  | Error e -> Alcotest.fail e);
  match apply_override "max_evac_targets=12" with
  | Ok c -> check_int "int knob applied" 12 c.Config.max_evac_targets
  | Error e -> Alcotest.fail e

let test_knob_validation () =
  (match apply_override "wastage_treshold=0.1" with
  | Ok _ -> Alcotest.fail "typo accepted"
  | Error e -> check "did-you-mean hint" true (contains e "wastage_threshold"));
  (match apply_override "wastage_threshold=5.0" with
  | Ok _ -> Alcotest.fail "out-of-range accepted"
  | Error _ -> ());
  (match apply_override "wastage_threshold" with
  | Ok _ -> Alcotest.fail "missing '=' accepted"
  | Error _ -> ());
  match apply_override "max_evac_targets=lots" with
  | Ok _ -> Alcotest.fail "non-numeric accepted"
  | Error _ -> ()

let test_knob_setters_clamp () =
  List.iter
    (fun (k : Config.knob) ->
      let c = k.Config.k_set (probe ()) (k.Config.k_hi +. 1e9) in
      let v = k.Config.k_get c in
      if not (v >= k.Config.k_lo -. 1e-9 && v <= k.Config.k_hi +. 1e-9) then
        Alcotest.failf "%s escaped its range: %g" k.Config.k_name v)
    Config.knobs

let test_resolve_guards () =
  (match Repro_harness.Collector_set.resolve ~knobs:[ "wastage_threshold=0.1" ] "g1" with
  | Ok _ -> Alcotest.fail "--lxr-knob accepted for g1"
  | Error _ -> ());
  (match Repro_harness.Collector_set.resolve ~controller:"hill" "g1" with
  | Ok _ -> Alcotest.fail "--controller accepted for g1"
  | Error _ -> ());
  match Repro_harness.Collector_set.resolve ~controller:"hill" ~knobs:[ "wastage_threshold=0.1" ] "lxr" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* --- Controller spec parsing -------------------------------------------- *)

let test_controller_parse () =
  (match Controller.parse "hill:seed=7,window=4" with
  | Ok s ->
    check "algo" true (s.Controller.algo = Controller.Hill);
    check_int "seed" 7 s.Controller.seed;
    check_int "window" 4 s.Controller.window
  | Error e -> Alcotest.fail e);
  (match Controller.parse "pid:obj=burn,target=1.5" with
  | Ok s ->
    check "objective" true (s.Controller.objective = Controller.Burn);
    check "target" true (s.Controller.target = 1.5)
  | Error e -> Alcotest.fail e);
  (match Controller.parse "hill:knobs=wastage_threshold+max_evac_targets" with
  | Ok s -> check_int "knob subset" 2 (List.length s.Controller.knobs)
  | Error e -> Alcotest.fail e);
  (match Controller.parse "hilll" with
  | Ok _ -> Alcotest.fail "typo algo accepted"
  | Error _ -> ());
  (match Controller.parse "hill:windw=4" with
  | Ok _ -> Alcotest.fail "typo key accepted"
  | Error _ -> ());
  match Controller.parse "hill:knobs=wastage" with
  | Ok _ -> Alcotest.fail "unknown knob accepted"
  | Error _ -> ()

(* --- Controller beats the static configuration --------------------------- *)

let test_controller_beats_static () =
  let w = { (bench "phaser") with Repro_mutator.Workload.request = None } in
  let run factory =
    Runner.run ~seed:42 ~workload:w ~factory ~heap_factor:1.5 ()
  in
  let ideal = run (find_factory "ideal") in
  let static = run Repro_lxr.Lxr.factory in
  let pid =
    let spec =
      match Controller.parse "pid" with Ok s -> s | Error e -> Alcotest.fail e
    in
    run (Controller.lxr_factory spec)
  in
  check "all contenders ran" true (ideal.ok && static.ok && pid.ok);
  let cost name real =
    Distill.distilled_wall_ns { Distill.name; real; ideal }
  in
  let ds = cost "static" static in
  let dp = cost "pid" pid in
  if not (dp < ds) then
    Alcotest.failf
      "PID controller did not beat static LXR on phaser: %.0f >= %.0f ns" dp
      ds

(* --- Adversarial workloads ---------------------------------------------- *)

let test_adversaries_registered () =
  let fragger = bench "fragger" in
  let phaser = bench "phaser" in
  check "fragger interleaves size classes" true
    (fragger.Repro_mutator.Workload.frag_classes <> []);
  check "phaser phases" true (phaser.Repro_mutator.Workload.phase_allocs > 0);
  (* Neutral defaults elsewhere: the adversary fields must not perturb
     the PRNG streams of the existing zoo. *)
  List.iter
    (fun (w : Repro_mutator.Workload.t) ->
      if w.name <> "fragger" && w.name <> "phaser" then begin
        check (w.name ^ " has no frag classes") true (w.frag_classes = []);
        check (w.name ^ " does not phase") true (w.phase_allocs = 0)
      end)
    Repro_mutator.Benchmarks.all

let test_adversaries_run () =
  List.iter
    (fun name ->
      let r =
        Runner.run ~seed:5 ~scale:0.2 ~workload:(bench name)
          ~factory:Repro_lxr.Lxr.factory ~heap_factor:2.0 ()
      in
      check (name ^ " runs under LXR") true r.ok;
      check (name ^ " allocates") true (r.alloc_count > 1000))
    [ "fragger"; "phaser" ]

let suite =
  [ ( "distill",
      [ Alcotest.test_case "ideal baseline is free" `Quick test_ideal_is_free;
        Alcotest.test_case "ideal registration" `Quick
          test_ideal_registered_not_in_all;
        Alcotest.test_case "rows and renderers" `Quick test_rows_render;
        Alcotest.test_case "corpus distilled bounds (exhaustive)" `Slow
          test_corpus_bounds;
        QCheck_alcotest.to_alcotest prop_distilled_bounds ] );
    ( "policy",
      [ Alcotest.test_case "knob overrides" `Quick test_knob_override;
        Alcotest.test_case "knob validation" `Quick test_knob_validation;
        Alcotest.test_case "knob setters clamp" `Quick
          test_knob_setters_clamp;
        Alcotest.test_case "resolve guards" `Quick test_resolve_guards;
        Alcotest.test_case "controller spec parsing" `Quick
          test_controller_parse;
        Alcotest.test_case "controller beats static on an adversary" `Slow
          test_controller_beats_static ] );
    ( "adversaries",
      [ Alcotest.test_case "registration and neutral defaults" `Quick
          test_adversaries_registered;
        Alcotest.test_case "smoke under LXR" `Quick test_adversaries_run ] )
  ]
