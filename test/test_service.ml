(* Tests for the fleet serving tier: policy parsing, admission
   accounting, histogram merge semantics, domain-count determinism, the
   gc-aware-beats-round-robin property the fleet experiment reports, and
   the resilience layer — lifecycle machine, chaos schedules, client
   retry policy, SLO burn monitoring and the autoscaler. *)

open Repro_service
module Histogram = Repro_util.Histogram

let check = Alcotest.(check bool)

let lusearch = Repro_mutator.Benchmarks.find "lusearch"
let shen = Repro_collectors.Conc_mark_evac.shenandoah

let spec_ok what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s spec rejected: %s" what m

let chaos_spec s = spec_ok "chaos" (Chaos.of_spec s)
let retry_spec s = spec_ok "retry" (Policy.Retry.of_spec s)
let slo_spec s = spec_ok "slo" (Slo.of_spec s)
let autoscale_spec s = spec_ok "autoscale" (Slo.Autoscale.of_spec s)

let fleet ?(policy = Policy.Gc_aware) ?(replicas = 2) ?(requests = 400)
    ?(domains = 1) ?(seed = 42) ?(load = 0.15) ?(verify = [])
    ?heap_factor ?queue_limit ?chaos ?retry ?slo ?autoscale
    ?(factory = shen) () =
  Fleet.run
    (Fleet.config ~policy ~replicas ~requests ~domains ~seed ~load ~verify
       ?heap_factor ?queue_limit ?chaos ?retry ?slo ?autoscale
       ~workload:lusearch ~factory ())

let accounted (r : Fleet.result) =
  r.completed + r.rejected + r.dropped + r.shed = r.requests

(* --- Policies ----------------------------------------------------------- *)

let test_policy_names () =
  check "three policies" true (List.length Policy.all = 3);
  List.iter
    (fun (name, p) ->
      check (name ^ " round-trips") true (Policy.of_string name = Ok p);
      check (name ^ " case-insensitive") true
        (Policy.of_string (String.uppercase_ascii name) = Ok p))
    Policy.all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_policy_suggestion () =
  match Policy.of_string "gc-awre" with
  | Ok _ -> Alcotest.fail "typo resolved"
  | Error msg ->
    check "mentions the typo" true (contains msg "gc-awre");
    check "suggests the fix" true (contains msg "did you mean \"gc-aware\"")

(* --- Basic runs --------------------------------------------------------- *)

let test_fleet_smoke () =
  let r = fleet () in
  check "ok" true r.ok;
  check "collector name" true (r.collector = "Shenandoah");
  check "workload name" true (r.workload = "lusearch");
  check "everything accounted" true (accounted r);
  check "served all" true (r.completed > 0);
  check "wall advanced" true (r.wall_ns > 0.0);
  check "qps positive" true
    (Fleet.qps_opt r = Some (Float.of_int r.completed /. (r.wall_ns /. 1e9)));
  check "latency recorded" true (Histogram.count r.latency = r.completed);
  check "per-replica stats" true (List.length r.per_replica = r.replicas);
  check "replicas end serving" true
    (List.for_all (fun (s : Fleet.replica_stats) -> s.r_state = "serving")
       r.per_replica);
  check "no restarts without chaos" true
    (List.for_all (fun (s : Fleet.replica_stats) -> s.r_restarts = 0)
       r.per_replica);
  check "replica indices ascend" true
    (List.mapi (fun i (s : Fleet.replica_stats) -> s.r_index = i) r.per_replica
    |> List.for_all (fun b -> b))

(* Dispatch, routing, the replica round's bookkeeping and settle keep
   their state in flat storage made at start, so a fleet allocates
   little beyond what its replicas' simulations allocate: setup, the
   simulated requests and the wind-down. On the dev build this fleet
   allocates 552 minor words per completed request; with the front-end
   consing lists, tuples, options and boxed scores per request, it
   allocated 717. *)
let test_fleet_minor_words () =
  let cfg =
    Fleet.config ~replicas:4 ~requests:3000 ~seed:42 ~domains:1
      ~workload:lusearch ~factory:Repro_lxr.Lxr.factory ()
  in
  let w0 = Gc.minor_words () in
  let r = Fleet.run cfg in
  let words = Gc.minor_words () -. w0 in
  check "all completed" true (r.ok && r.completed = 3000);
  let per_request = words /. Float.of_int r.completed in
  if per_request >= 600.0 then
    Alcotest.failf "fleet allocated %.1f minor words per request" per_request

let test_fleet_no_request_model () =
  let w = { lusearch with Repro_mutator.Workload.request = None } in
  let r = Fleet.run (Fleet.config ~workload:w ~factory:shen ()) in
  check "not ok" true (not r.ok);
  check "error explains" true
    (match r.error with Some m -> contains m "request model" | None -> false)

let test_fleet_unsupported_collector () =
  let r = fleet ~factory:Repro_collectors.Conc_mark_evac.zgc () in
  check "not ok" true (not r.ok);
  check "error mentions heap" true
    (match r.error with Some m -> contains m "heap" | None -> false);
  check "qps_opt is None on failure" true (Fleet.qps_opt r = None)

(* Both must come back as failed runs: a quantum that never advances
   the scheduling window used to loop forever, and a heap below one
   block raised out of replica setup. *)
let test_fleet_non_positive_quantum () =
  let r =
    Fleet.run
      (Fleet.config ~quantum_ns:0.0 ~requests:100 ~workload:lusearch
         ~factory:shen ())
  in
  check "not ok" true (not r.ok);
  check "error names the quantum" true
    (match r.error with Some m -> contains m "quantum" | None -> false)

(* Inputs that used to hang, raise or silently run something else; each
   must come back as a failed run whose error names the input. *)
let bad_inputs =
  [ ("nan load", (fun () -> fleet ~load:Float.nan ()), "load");
    ("zero load", (fun () -> fleet ~load:0.0 ()), "load");
    ("negative load", (fun () -> fleet ~load:(-1.0) ()), "load");
    ("negative requests", (fun () -> fleet ~requests:(-3) ()), "requests");
    ("zero queue limit", (fun () -> fleet ~queue_limit:0 ()), "queue limit");
    ("negative queue limit", (fun () -> fleet ~queue_limit:(-5) ()), "-5");
    ( "quantum below the clock's resolution",
      (fun () ->
        Fleet.run
          (Fleet.config ~quantum_ns:1e-300 ~requests:100 ~workload:lusearch
             ~factory:shen ())),
      "quantum" );
    ( "chaos target past the last replica",
      (fun () -> fleet ~replicas:3 ~chaos:(chaos_spec "crash@0.3:r5") ()),
      "r5" ) ]

let test_fleet_bad_input run what () =
  let r : Fleet.result = run () in
  check "not ok" true (not r.ok);
  check ("error names " ^ what) true
    (match r.error with Some m -> contains m what | None -> false)

let test_fleet_heap_below_one_block () =
  let r = fleet ~heap_factor:0.001 () in
  check "not ok" true (not r.ok);
  check "error names the heap" true
    (match r.error with Some m -> contains m "heap" | None -> false)

let test_fleet_verified () =
  let r = fleet ~verify:Repro_verify.Verifier.[ Pre_pause; Post_pause; End_of_run ] () in
  check "ok" true r.ok;
  check "verifier ran" true (r.verifier_checks > 0);
  check "no violations" true (r.violations = 0)

(* --- Histogram merge vs pooled samples ---------------------------------- *)

let test_merge_equals_pooled () =
  (* Bucket-wise merge of per-shard histograms must equal one histogram
     fed every sample — the property the fleet's metric merging step
     relies on. *)
  let prng = Repro_util.Prng.create 7 in
  let shards = Array.init 4 (fun _ -> Histogram.create ()) in
  let pooled = Histogram.create () in
  for _ = 1 to 10_000 do
    let v = 1 + Repro_util.Prng.int prng 1_000_000 in
    Histogram.record shards.(Repro_util.Prng.int prng 4) v;
    Histogram.record pooled v
  done;
  let merged = Histogram.create () in
  Array.iter (fun h -> Histogram.merge ~into:merged h) shards;
  check "merged = pooled" true (Histogram.equal merged pooled)

let test_fleet_merge_is_per_replica_merge () =
  let r = fleet ~replicas:3 () in
  let relatency = Histogram.create () in
  let requeueing = Histogram.create () in
  List.iter
    (fun (s : Fleet.replica_stats) ->
      Histogram.merge ~into:relatency s.r_latency;
      Histogram.merge ~into:requeueing s.r_queueing)
    r.per_replica;
  check "latency merged from replicas" true
    (Histogram.equal relatency r.latency);
  check "queueing merged from replicas" true
    (Histogram.equal requeueing r.queueing)

(* --- Lifecycle state machine --------------------------------------------- *)

let test_lifecycle_machine () =
  let open Lifecycle in
  let lc = create ~now:0.0 in
  check "starts warming" true (state lc = Warming);
  check "warming is routable" true (routable lc);
  (* slow-start: limit 8 over 4 rounds ramps 2, 4, 6, 8 *)
  check "ramp round 1" true (admission lc ~queue_limit:8 ~ramp_rounds:4 = 2);
  tick_round lc;
  check "ramp round 2" true (admission lc ~queue_limit:8 ~ramp_rounds:4 = 4);
  tick_round lc;
  tick_round lc;
  check "ramp saturates" true (admission lc ~queue_limit:8 ~ramp_rounds:4 = 8);
  check "no ramp = full admission" true
    (admission lc ~queue_limit:8 ~ramp_rounds:0 = 8);
  check "ramp floor is 1" true (admission lc ~queue_limit:1 ~ramp_rounds:64 = 1);
  transition lc ~now:10.0 Serving;
  check "serving full admission" true
    (admission lc ~queue_limit:8 ~ramp_rounds:4 = 8);
  check "serving -> restarting is illegal" true
    (match transition lc ~now:20.0 Restarting with
    | () -> false
    | exception Illegal m -> contains m "serving -> restarting");
  transition lc ~now:30.0 Down;
  check "down not routable" true (not (routable lc));
  check "down admits nothing" true (admission lc ~queue_limit:8 ~ramp_rounds:4 = 0);
  check "down -> serving is illegal" true
    (match transition lc ~now:30.0 Serving with
    | () -> false
    | exception Illegal _ -> true);
  transition lc ~now:40.0 Restarting;
  check "relaunch counted" true (lc.restarts = 1);
  check "restarting admits nothing" true
    (admission lc ~queue_limit:8 ~ramp_rounds:4 = 0);
  transition lc ~now:50.0 Warming;
  finish lc ~now:60.0;
  let t = time_in_alist lc in
  check "one entry per state" true (List.length t = List.length states);
  check "warming time" true (List.assoc "warming" t = 20.0);
  check "serving time" true (List.assoc "serving" t = 20.0);
  check "down time" true (List.assoc "down" t = 10.0);
  check "restarting time" true (List.assoc "restarting" t = 10.0);
  check "stretches cover the run" true
    (List.fold_left (fun a (_, v) -> a +. v) 0.0 t = 60.0)

(* --- Chaos spec parsing and scheduling ----------------------------------- *)

let test_chaos_spec () =
  let s =
    chaos_spec
      "crash@0.3:r1,stall@0.45+0.1x4,heap-shrink@0.6x0.7,\
       flash-crowd@0.5+0.15x3,restart:2ms,warmup:6,auto-restart:off"
  in
  check "four events" true (List.length s.Chaos.events = 4);
  check "restart delay" true (s.Chaos.restart_delay_ns = Some 2e6);
  check "warmup rounds" true (s.Chaos.warmup_rounds = Some 6);
  check "auto-restart off" true (not s.Chaos.auto_restart);
  let crash = List.hd s.Chaos.events in
  check "explicit target" true (crash.Chaos.replica = Some 1);
  check "crash is instantaneous" true (crash.Chaos.dur = 0.0);
  (match Chaos.of_spec "crsh@0.3" with
  | Ok _ -> Alcotest.fail "typo parsed"
  | Error m ->
    check "mentions the typo" true (contains m "crsh");
    check "suggests crash" true (contains m "crash"));
  (match Chaos.of_spec "crash@1.5" with
  | Ok _ -> Alcotest.fail "out-of-range time parsed"
  | Error _ -> ());
  (match Chaos.of_spec "heap-shrink@0.5x0.01" with
  | Ok _ -> Alcotest.fail "out-of-range factor parsed"
  | Error m -> check "factor range named" true (contains m "[0.05, 1]"));
  (match Chaos.of_spec "crash@0.5:r-1" with
  | Ok _ -> Alcotest.fail "negative target parsed"
  | Error _ -> ())

let test_chaos_schedule_deterministic () =
  let spec = chaos_spec "crash@0.3,stall@0.5+0.1x2,flash-crowd@0.2+0.2x4" in
  let mk () = Chaos.schedule spec ~seed:7 ~replicas:4 ~t0:0.0 ~span:1000.0 in
  let a = Chaos.due (mk ()) ~until:infinity in
  let b = Chaos.due (mk ()) ~until:infinity in
  check "three firings" true (List.length a = 3);
  check "same seed, same timeline" true (a = b);
  check "time-ordered" true
    (let rec sorted = function
       | (x : Chaos.firing) :: (y :: _ as rest) ->
         x.f_start <= y.f_start && sorted rest
       | _ -> true
     in
     sorted a);
  check "targets drawn in range" true
    (List.for_all
       (fun (f : Chaos.firing) ->
         f.f_replica = -1 || (f.f_replica >= 0 && f.f_replica < 4))
       a);
  check "flash windows exposed" true
    (List.length (Chaos.flash_windows (mk ())) = 1)

(* --- Client retry policy -------------------------------------------------- *)

let test_retry_spec () =
  check "none is a single attempt" true (Policy.Retry.none.max_attempts = 1);
  check "none has no deadline" true (Policy.Retry.none.timeout_ns = None);
  let t = retry_spec "timeout:5ms,max:3,backoff:500us,hedge:2ms" in
  check "timeout" true (t.Policy.Retry.timeout_ns = Some 5e6);
  check "attempts" true (t.Policy.Retry.max_attempts = 3);
  check "hedge" true (t.Policy.Retry.hedge_ns = Some 2e6);
  check "backoff base" true (Policy.Retry.delay t ~attempt:1 = 5e5);
  check "backoff doubles" true (Policy.Retry.delay t ~attempt:3 = 2e6);
  (match Policy.Retry.of_spec "max:3" with
  | Ok _ -> Alcotest.fail "retries without a deadline parsed"
  | Error m -> check "needs timeout" true (contains m "timeout"));
  (match Policy.Retry.of_spec "timeout:5ms,mx:3" with
  | Ok _ -> Alcotest.fail "typo parsed"
  | Error m -> check "suggests max" true (contains m "max"))

(* --- SLO monitor and autoscaler ------------------------------------------ *)

let test_slo_spec_and_burn () =
  (match Slo.of_spec "window:8" with
  | Ok _ -> Alcotest.fail "objective-free spec parsed"
  | Error m -> check "demands an objective" true (contains m "percentile"));
  (match Slo.of_spec "p99.9:2ms,windw:8" with
  | Ok _ -> Alcotest.fail "typo parsed"
  | Error m -> check "suggests window" true (contains m "window"));
  (match Slo.of_spec "p99.9:2ms,shed:1.5" with
  | Ok _ -> Alcotest.fail "out-of-range shed parsed"
  | Error _ -> ());
  let spec = slo_spec "p99:10ms,window:4,burn-high:4,burn-low:1,shed:0.25" in
  check "percentile" true (spec.Slo.percentile = 99.0);
  check "budget" true (spec.Slo.budget_ns = 1e7);
  let m = Slo.create spec in
  check "starts quiet" true (Slo.burn m = 0.0 && Slo.shedding m = 0.0);
  (* 10% violations against a 1% allowance: burn 10 -> brown-out *)
  for _ = 1 to 90 do
    Slo.observe m ~latency_ns:1e6
  done;
  for _ = 1 to 10 do
    Slo.observe m ~latency_ns:1e8
  done;
  Slo.tick m ~now:1.0;
  check "burn is 10x" true (Float.abs (Slo.burn m -. 10.0) < 1e-9);
  check "sheds the spec fraction" true (Slo.shedding m = 0.25);
  check "breach counted" true (Slo.breach_rounds m = 1);
  (* clean rounds flush the window; hysteresis releases at burn-low *)
  for i = 2 to 5 do
    for _ = 1 to 100 do
      Slo.observe m ~latency_ns:1e6
    done;
    Slo.tick m ~now:(Float.of_int i)
  done;
  check "burn decays to zero" true (Slo.burn m = 0.0);
  check "shedding released" true (Slo.shedding m = 0.0);
  check "peak survives" true (Slo.peak_burn m >= 10.0);
  check "one timeline point per tick" true (List.length (Slo.timeline m) = 5);
  check "timeline oldest first" true
    ((List.hd (Slo.timeline m)).Slo.time = 1.0);
  (* The fleet runs with the inert monitor when no SLO is set. *)
  Slo.observe Slo.none ~latency_ns:Float.infinity;
  Slo.tick Slo.none ~now:1.0;
  check "inert monitor stays quiet" true
    (Slo.burn Slo.none = 0.0 && Slo.shedding Slo.none = 0.0
    && Slo.peak_burn Slo.none = 0.0 && Slo.timeline Slo.none = [])

let test_autoscale_controller () =
  (match Slo.Autoscale.of_spec "min:4,max:2" with
  | Ok _ -> Alcotest.fail "min > max parsed"
  | Error m -> check "orders min/max" true (contains m "min"));
  (match Slo.Autoscale.of_spec "up:4" with
  | Ok _ -> Alcotest.fail "max-free spec parsed"
  | Error m -> check "demands max" true (contains m "max"));
  let spec =
    autoscale_spec "min:1,max:4,up:4,down:0.25,patience:2,cooldown:3"
  in
  let t = Slo.Autoscale.create spec in
  check "patience holds the first hot tick" true
    (Slo.Autoscale.tick t ~burn:5.0 ~active:2 = `Hold);
  check "sustained burn scales up" true
    (Slo.Autoscale.tick t ~burn:5.0 ~active:2 = `Up);
  check "cooldown holds" true
    (Slo.Autoscale.tick t ~burn:5.0 ~active:3 = `Hold);
  let d = Slo.Autoscale.create spec in
  check "cold tick holds" true (Slo.Autoscale.tick d ~burn:0.0 ~active:3 = `Hold);
  check "sustained quiet scales down" true
    (Slo.Autoscale.tick d ~burn:0.0 ~active:3 = `Down);
  let f = Slo.Autoscale.create spec in
  ignore (Slo.Autoscale.tick f ~burn:0.0 ~active:1);
  check "floor respected" true (Slo.Autoscale.tick f ~burn:0.0 ~active:1 = `Hold);
  let c = Slo.Autoscale.create spec in
  ignore (Slo.Autoscale.tick c ~burn:5.0 ~active:4);
  check "ceiling respected" true (Slo.Autoscale.tick c ~burn:5.0 ~active:4 = `Hold)

(* --- Admission bound and setup failure (all collectors) ------------------- *)

let test_fleet_rejected_path () =
  (* queue limit 1 under heavy load: the admission bound must bounce
     arrivals, and every bounce must land in a terminal bucket. *)
  let r = fleet ~queue_limit:1 ~load:2.0 ~requests:800 () in
  check "ok" true r.ok;
  check "admission bound bites" true (r.rejected > 0);
  check "everything accounted" true (accounted r);
  (* a retry budget turns rejections into backoff re-dispatches *)
  let rr =
    fleet ~queue_limit:1 ~load:2.0 ~requests:800
      ~retry:(retry_spec "timeout:400ms,max:4,backoff:100us") ()
  in
  check "retry ok" true rr.ok;
  check "rejections retried" true (rr.retries > 0);
  check "retry accounting holds" true (accounted rr);
  check "retries recover rejections" true (rr.rejected < r.rejected)

let test_setup_failure_every_collector () =
  (* A 0.05x heap cannot hold any workload's live set: setup must fail
     on some replica for every collector, as a reported error naming
     the replica (or the collector's own unsupported-heap message), and
     identically under domain parallelism. *)
  List.iter
    (fun (name, factory) ->
      let results =
        List.map
          (fun domains ->
            fleet ~factory ~heap_factor:0.05 ~replicas:3 ~domains ())
          [ 1; 4 ]
      in
      List.iter
        (fun (r : Fleet.result) ->
          check (name ^ " fails setup") true (not r.ok);
          check (name ^ " reports the failure") true
            (match r.error with
            | Some m ->
              contains m "unsupported:" || contains m "setup failed on replica"
            | None -> false);
          check (name ^ " qps_opt is None") true (Fleet.qps_opt r = None))
        results;
      match results with
      | [ a; b ] -> check (name ^ " same error at domains=4") true (a.error = b.error)
      | _ -> assert false)
    Repro_harness.Collector_set.non_lxr

(* --- Ladder propagation (per-replica and fleet-summed) -------------------- *)

let test_fleet_ladder_propagation () =
  (* A tight heap forces allocation-failure collections, so the
     degradation ladder's rung counters must surface per replica and
     sum to the fleet total. *)
  let r = fleet ~heap_factor:1.1 ~requests:1200 () in
  check "ok" true r.ok;
  check "fleet ladder has the rungs" true (List.mem_assoc "ladder_young" r.ladder);
  check "rungs exercised" true (List.exists (fun (_, v) -> v > 0.0) r.ladder);
  check "replicas carry ladders" true
    (List.for_all
       (fun (s : Fleet.replica_stats) -> List.mem_assoc "ladder_young" s.r_ladder)
       r.per_replica);
  List.iter
    (fun (k, v) ->
      let sum =
        List.fold_left
          (fun a (s : Fleet.replica_stats) ->
            a +. Option.value (List.assoc_opt k s.r_ladder) ~default:0.0)
          0.0 r.per_replica
      in
      check (k ^ " sums across replicas") true (sum = v))
    r.ladder

(* --- Write-barrier counter propagation ------------------------------------ *)

let test_fleet_wb_propagation () =
  (* Journal-RC publishes wb_fast/wb_slow through its stats; the fleet
     must fold them per replica at engine retirement and sum them to the
     fleet totals, exactly like the ladder counters. *)
  let r =
    fleet ~factory:Repro_collectors.Journal_rc.factory ~requests:1200 ()
  in
  check "ok" true r.ok;
  check "fleet saw barrier fast paths" true (r.wb_fast > 0.0);
  check "fleet saw chunk publications" true (r.wb_slow > 0.0);
  check "wb_fast sums across replicas" true
    (List.fold_left
       (fun a (s : Fleet.replica_stats) -> a +. s.r_wb_fast)
       0.0 r.per_replica
    = r.wb_fast);
  check "wb_slow sums across replicas" true
    (List.fold_left
       (fun a (s : Fleet.replica_stats) -> a +. s.r_wb_slow)
       0.0 r.per_replica
    = r.wb_slow);
  (* Collectors without barrier counters report zeros, not noise. *)
  let r0 = fleet ~factory:Repro_collectors.G1.factory () in
  check "g1 fleet ok" true r0.ok;
  check "no wb counters without a logging barrier" true
    (r0.wb_fast = 0.0 && r0.wb_slow = 0.0)

(* --- Chaos integration ---------------------------------------------------- *)

let test_chaos_crash_and_restart () =
  let r =
    fleet ~replicas:3 ~requests:2000 ~load:0.3
      ~chaos:(chaos_spec "crash@0.3:r0,crash@0.6:r1") ()
  in
  check "ok" true r.ok;
  check "both crashes fired" true (r.chaos_events = 2);
  check "everything accounted" true (accounted r);
  check "work still completes" true (r.completed > 0);
  check "availability in range" true
    (r.availability > 0.0 && r.availability <= 1.0);
  let stats i = List.nth r.per_replica i in
  check "replica 0 restarted" true ((stats 0).Fleet.r_restarts >= 1);
  check "replica 1 restarted" true ((stats 1).Fleet.r_restarts >= 1);
  check "replica 2 untouched" true ((stats 2).Fleet.r_restarts = 0);
  check "death reason cleared after recovery" true
    ((stats 0).Fleet.r_oom = None);
  check "down time recorded" true
    (List.assoc "down" (stats 0).Fleet.r_time_in > 0.0);
  check "replicas end serving" true
    (List.for_all (fun (s : Fleet.replica_stats) -> s.r_state = "serving")
       r.per_replica)

let test_chaos_without_auto_restart () =
  let r =
    fleet ~replicas:2 ~requests:1000 ~load:0.3
      ~chaos:(chaos_spec "crash@0.3:r0,auto-restart:off") ()
  in
  check "ok" true r.ok;
  check "everything accounted" true (accounted r);
  let s0 = List.hd r.per_replica in
  check "replica 0 stays down" true (s0.Fleet.r_state = "down");
  check "no relaunch" true (s0.Fleet.r_restarts = 0);
  check "death reason kept" true (s0.Fleet.r_oom <> None);
  check "survivor carried the load" true
    ((List.nth r.per_replica 1).Fleet.r_served > 0)

let test_hedged_requests () =
  let r =
    fleet ~replicas:4 ~requests:4000 ~load:0.9
      ~retry:(retry_spec "timeout:400ms,hedge:50us") ()
  in
  check "ok" true r.ok;
  check "hedges dispatched" true (r.hedges > 0);
  check "some hedges win" true (r.hedge_wins > 0);
  check "wins bounded by hedges" true (r.hedge_wins <= r.hedges);
  check "everything accounted" true (accounted r)

let test_chaos_domains_deterministic () =
  (* The tentpole's contract: the full resilience stack — chaos firings,
     restarts, retries, hedging, SLO decisions — is bit-identical across
     domain counts. *)
  let mk domains =
    fleet ~replicas:4 ~requests:2000 ~domains ~load:0.3
      ~chaos:(chaos_spec "crash@0.3,heap-shrink@0.55x0.7,flash-crowd@0.6+0.1x3")
      ~retry:(retry_spec "timeout:80ms,max:3,backoff:200us")
      ~slo:(slo_spec "p99.9:10ms") ()
  in
  let a = mk 1 and b = mk 4 in
  check "both ok" true (a.ok && b.ok);
  check "chaos fired" true (a.chaos_events > 0);
  check "latency identical" true (Histogram.equal a.latency b.latency);
  check "queueing identical" true (Histogram.equal a.queueing b.queueing);
  check "wall identical" true (a.wall_ns = b.wall_ns);
  check "completed identical" true (a.completed = b.completed);
  check "rejected identical" true (a.rejected = b.rejected);
  check "dropped identical" true (a.dropped = b.dropped);
  check "shed identical" true (a.shed = b.shed);
  check "timeouts identical" true (a.timeouts = b.timeouts);
  check "retries identical" true (a.retries = b.retries);
  check "hedges identical" true (a.hedges = b.hedges);
  check "chaos events identical" true (a.chaos_events = b.chaos_events);
  check "availability identical" true (a.availability = b.availability);
  check "slo peak burn identical" true (a.slo_peak_burn = b.slo_peak_burn);
  check "slo timeline identical" true (a.slo_timeline = b.slo_timeline);
  List.iter2
    (fun (x : Fleet.replica_stats) (y : Fleet.replica_stats) ->
      check "replica served identical" true (x.r_served = y.r_served);
      check "replica restarts identical" true (x.r_restarts = y.r_restarts);
      check "replica state identical" true (x.r_state = y.r_state);
      check "replica time-in-state identical" true (x.r_time_in = y.r_time_in);
      check "replica latency identical" true
        (Histogram.equal x.r_latency y.r_latency))
    a.per_replica b.per_replica

let test_autoscale_integration () =
  (* Overload a two-replica fleet that is allowed to grow: the burn
     monitor must trip the autoscaler into activating spare slots. *)
  let r =
    fleet ~replicas:2 ~requests:3000 ~load:1.4
      ~slo:(slo_spec "p99.9:2ms,window:16")
      ~autoscale:(autoscale_spec "min:1,max:4,up:1,down:0.1,patience:4,cooldown:16")
      ()
  in
  check "ok" true r.ok;
  check "scaled up" true (r.scale_ups > 0);
  check "spare slots activated" true (List.length r.per_replica > 2);
  check "everything accounted" true (accounted r)

let test_autoscale_requires_slo () =
  let r = fleet ~autoscale:(autoscale_spec "max:4") () in
  check "not ok" true (not r.ok);
  check "explains the dependency" true
    (match r.error with Some m -> contains m "SLO" | None -> false)

(* --- Domain-count determinism (no chaos) --------------------------------- *)

let test_domains_deterministic () =
  let a = fleet ~replicas:4 ~requests:800 ~domains:1 () in
  let b = fleet ~replicas:4 ~requests:800 ~domains:4 () in
  check "both ok" true (a.ok && b.ok);
  check "latency identical" true (Histogram.equal a.latency b.latency);
  check "queueing identical" true (Histogram.equal a.queueing b.queueing);
  check "wall identical" true (a.wall_ns = b.wall_ns);
  check "completed identical" true (a.completed = b.completed);
  check "rejected identical" true (a.rejected = b.rejected);
  check "diversions identical" true (a.diversions = b.diversions);
  List.iter2
    (fun (x : Fleet.replica_stats) (y : Fleet.replica_stats) ->
      check "replica served identical" true (x.r_served = y.r_served);
      check "replica latency identical" true
        (Histogram.equal x.r_latency y.r_latency);
      check "replica wall identical" true (x.r_wall_ns = y.r_wall_ns))
    a.per_replica b.per_replica

(* --- The experiment's headline property ---------------------------------- *)

let pctl h p = Option.value (Histogram.percentile_opt h p) ~default:0

let test_gc_aware_beats_round_robin () =
  (* The fleet experiment's acceptance shape: on lusearch at a 1.3x heap,
     gc-aware routing hides Shenandoah's per-replica pauses from the
     fleet p99.9 where round-robin queues arrivals straight into them. *)
  let rr =
    fleet ~policy:Policy.Round_robin ~replicas:4 ~requests:12_000 ()
  in
  let ga = fleet ~policy:Policy.Gc_aware ~replicas:4 ~requests:12_000 () in
  check "both ok" true (rr.ok && ga.ok);
  check "round-robin never diverts" true (rr.diversions = 0);
  check "gc-aware diverts" true (ga.diversions > 0);
  let rr999 = pctl rr.latency 99.9 and ga999 = pctl ga.latency 99.9 in
  check
    (Printf.sprintf "gc-aware p99.9 (%dns) < round-robin p99.9 (%dns)" ga999
       rr999)
    true
    (ga999 < rr999)

let suite =
  [ ( "service",
      [ Alcotest.test_case "policy names" `Quick test_policy_names;
        Alcotest.test_case "policy suggestion" `Quick test_policy_suggestion;
        Alcotest.test_case "fleet smoke" `Quick test_fleet_smoke;
        Alcotest.test_case "fleet minor words per request" `Quick
          test_fleet_minor_words;
        Alcotest.test_case "no request model" `Quick test_fleet_no_request_model;
        Alcotest.test_case "unsupported collector" `Quick
          test_fleet_unsupported_collector;
        Alcotest.test_case "non-positive quantum" `Quick
          test_fleet_non_positive_quantum;
        Alcotest.test_case "heap below one block" `Quick
          test_fleet_heap_below_one_block;
        Alcotest.test_case "verified fleet" `Quick test_fleet_verified;
        Alcotest.test_case "merge = pooled" `Quick test_merge_equals_pooled;
        Alcotest.test_case "fleet merge from replicas" `Quick
          test_fleet_merge_is_per_replica_merge;
        Alcotest.test_case "lifecycle machine" `Quick test_lifecycle_machine;
        Alcotest.test_case "chaos spec" `Quick test_chaos_spec;
        Alcotest.test_case "chaos schedule deterministic" `Quick
          test_chaos_schedule_deterministic;
        Alcotest.test_case "retry spec" `Quick test_retry_spec;
        Alcotest.test_case "slo spec and burn" `Quick test_slo_spec_and_burn;
        Alcotest.test_case "autoscale controller" `Quick
          test_autoscale_controller;
        Alcotest.test_case "rejected path" `Quick test_fleet_rejected_path;
        Alcotest.test_case "setup failure every collector" `Quick
          test_setup_failure_every_collector;
        Alcotest.test_case "ladder propagation" `Quick
          test_fleet_ladder_propagation;
        Alcotest.test_case "wb counter propagation" `Quick
          test_fleet_wb_propagation;
        Alcotest.test_case "autoscale requires slo" `Quick
          test_autoscale_requires_slo;
        Alcotest.test_case "chaos crash and restart" `Slow
          test_chaos_crash_and_restart;
        Alcotest.test_case "chaos without auto-restart" `Slow
          test_chaos_without_auto_restart;
        Alcotest.test_case "hedged requests" `Slow test_hedged_requests;
        Alcotest.test_case "chaos domains deterministic" `Slow
          test_chaos_domains_deterministic;
        Alcotest.test_case "autoscale integration" `Slow
          test_autoscale_integration;
        Alcotest.test_case "domains deterministic" `Slow
          test_domains_deterministic;
        Alcotest.test_case "gc-aware beats round-robin" `Slow
          test_gc_aware_beats_round_robin ]
      @ List.map
          (fun (name, run, what) ->
            Alcotest.test_case name `Quick (test_fleet_bad_input run what))
          bad_inputs ) ]
