(* Pins simulated behaviour in two golden files. A refactor that claims
   to preserve behaviour must leave every line of both alone. On a
   mismatch a test prints the expected and actual lines; after a
   deliberate behaviour change, paste the actual lines into the file.

   golden/collectors.digest holds one line per registered collector x
   benchmark x heap factor: "<collector> <benchmark> <factor> <value>",
   where the value is an MD5 of the run metrics (the ledger's run-digest
   field set) at scale 0.08 and seed 7 with the end-of-run verifier on,
   or the run's error message when the collector refuses the heap or the
   run fails.

   golden/fleet.digest holds one line per fleet scenario: "<scenario>
   <value>", where the value is an MD5 over every Fleet.result field, or
   "error: <message>" for a failed run. Each scenario also asserts that
   the path it is named after fired. *)

open Repro_harness
module Fleet = Repro_service.Fleet

(* Field encoders shared by both digests. *)
let encoder b =
  let floats = List.iter (Printf.bprintf b "%h;") in
  let ints = List.iter (Printf.bprintf b "%d;") in
  let alist = List.iter (fun (k, v) -> Printf.bprintf b "%s=%h;" k v) in
  let hist h =
    ints [ Repro_util.Histogram.count h; Repro_util.Histogram.total h ];
    List.iter
      (fun p ->
        ints [ Option.value ~default:0 (Repro_util.Histogram.percentile_opt h p) ])
      [ 50.; 90.; 99.; 99.9; 100. ]
  in
  (floats, ints, alist, hist)

(* The key of a line is its first [words] words; the rest is its value. *)
let key ~words line =
  let parts = String.split_on_char ' ' line in
  if List.length parts <= words then line
  else String.concat " " (List.filteri (fun i _ -> i < words) parts)

let check_golden path ~words actual =
  let expected =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let key = key ~words in
  let find lines k = List.find_opt (fun l -> key l = k) lines in
  let keys = List.sort_uniq compare (List.map key (expected @ actual)) in
  let diffs =
    List.filter_map
      (fun k ->
        let e = find expected k and a = find actual k in
        if e = a then None
        else
          let show = Option.value ~default:(k ^ " (missing)") in
          Some (Printf.sprintf "  expected: %s\n  actual:   %s" (show e) (show a)))
      keys
  in
  if diffs <> [] then
    Alcotest.failf "%s: %d of %d lines differ\n%s" path (List.length diffs)
      (List.length keys) (String.concat "\n" diffs)

(* --- Collectors ---------------------------------------------------------- *)

let benchmarks = [ "avrora"; "fragger"; "h2" ]
let factors = [ 1.1; 1.3 ]

let digest (r : Runner.result) =
  let b = Buffer.create 512 in
  let floats, ints, alist, hist = encoder b in
  floats
    [ r.wall_ns; r.mutator_cpu_ns; r.gc_cpu_ns; r.stw_wall_ns; r.stw_cpu_ns;
      r.alloc_stall_ns; r.barrier_cpu_ns ];
  ints
    [ r.pause_count; r.requests; r.alloc_bytes; r.alloc_count; r.survived_bytes;
      r.large_bytes ];
  hist r.pauses;
  Option.iter hist r.latency;
  alist r.collector_stats;
  alist r.ladder;
  Digest.to_hex (Digest.string (Buffer.contents b))

let cell name bench factor =
  let get = function Ok x -> x | Error e -> Alcotest.fail e in
  let r =
    Runner.run ~seed:7 ~scale:0.08 ~verify:[ Repro_verify.Verifier.End_of_run ]
      ~workload:(get (Collector_set.find_workload bench))
      ~factory:(get (Collector_set.find name)) ~heap_factor:factor ()
  in
  let value =
    match r.error with
    | None -> digest r
    | Some e -> "error: " ^ e
  in
  Printf.sprintf "%s %s %.1f %s" name bench factor value

let test_collectors_golden () =
  check_golden
    (Filename.concat "golden" "collectors.digest")
    ~words:3
    (List.concat_map
       (fun name ->
         List.concat_map
           (fun bench -> List.map (cell name bench) factors)
           benchmarks)
       Collector_set.names)

(* --- Fleet --------------------------------------------------------------- *)

let fleet_digest (r : Fleet.result) =
  let b = Buffer.create 1024 in
  let floats, ints, alist, hist = encoder b in
  let strings = List.iter (Printf.bprintf b "%S;") in
  let { Fleet.workload; collector; policy; replicas; domains; heap_factor; ok;
        error; requests; completed; rejected; dropped; shed; timeouts; retries;
        hedges; hedge_wins; wall_ns; latency; queueing; diversions;
        availability; chaos_events; scale_ups; scale_downs; slo_peak_burn;
        slo_breach_rounds; slo_shed_rounds; slo_timeline; ladder; wb_fast;
        wb_slow; verifier_checks; violations; per_replica } =
    r
  in
  strings
    [ workload; collector; Repro_service.Policy.to_string policy;
      Option.value error ~default:"-" ];
  ints
    [ replicas; domains; Bool.to_int ok; requests; completed; rejected; dropped;
      shed; timeouts; retries; hedges; hedge_wins; diversions; chaos_events;
      scale_ups; scale_downs; slo_breach_rounds; slo_shed_rounds;
      verifier_checks; violations ];
  floats [ heap_factor; wall_ns; availability; slo_peak_burn; wb_fast; wb_slow ];
  hist latency;
  hist queueing;
  List.iter
    (fun { Repro_service.Slo.time; burn; shedding } ->
      floats [ time; burn ];
      ints [ Bool.to_int shedding ])
    slo_timeline;
  alist ladder;
  List.iter
    (fun { Fleet.r_index; r_served; r_dropped; r_latency; r_queueing;
           r_busy_ns; r_wall_ns; r_utilization; r_pause_count; r_pauses;
           r_gc_cpu_ns; r_mutator_cpu_ns; r_oom; r_state; r_restarts;
           r_time_in; r_ladder; r_wb_fast; r_wb_slow } ->
      ints [ r_index; r_served; r_dropped; r_pause_count; r_restarts ];
      floats
        [ r_busy_ns; r_wall_ns; r_utilization; r_gc_cpu_ns; r_mutator_cpu_ns;
          r_wb_fast; r_wb_slow ];
      hist r_latency;
      hist r_queueing;
      hist r_pauses;
      strings [ Option.value r_oom ~default:"-"; r_state ];
      alist r_time_in;
      alist r_ladder)
    per_replica;
  Digest.to_hex (Digest.string (Buffer.contents b))

let spec what parse s =
  match parse s with
  | Ok v -> v
  | Error m -> Alcotest.failf "%s spec %S rejected: %s" what s m

let chaos = spec "chaos" Repro_service.Chaos.of_spec
let retry = spec "retry" Repro_service.Policy.Retry.of_spec
let slo = spec "slo" Repro_service.Slo.of_spec
let autoscale = spec "autoscale" Repro_service.Slo.Autoscale.of_spec
let lusearch = Repro_mutator.Benchmarks.find "lusearch"
let lxr = Repro_lxr.Lxr.factory

let fleet ?(workload = lusearch) ?(factory = lxr) ?(replicas = 3)
    ?(requests = 1500) ?(load = 0.3) ?policy ?heap_factor ?quantum_ns ?domains
    ?verify ?chaos ?retry ?slo ?autoscale ?on_burn () =
  Fleet.run
    (Fleet.config ~replicas ~requests ~load ?policy ?heap_factor ?quantum_ns
       ?domains ?verify ?chaos ?retry ?slo ?autoscale ?on_burn ~workload
       ~factory ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A scenario that must fail with an error naming [what]. *)
let rejects what (r : Fleet.result) =
  (not r.ok) && match r.error with Some m -> contains m what | None -> false

let ci_chaos domains =
  fleet ~domains
    ~chaos:(chaos "crash@0.3:r0,heap-shrink@0.6x0.7,restart:5us")
    ~retry:(retry "timeout:80ms,max:3,backoff:200us")
    ~slo:(slo "p99.9:10ms") ()

(* The burn a knob controller reads, published by the fleet's on_burn
   between rounds and read by replicas during them, on whichever domain
   serves each one. *)
let pid_burn domains =
  let cell = Atomic.make 0.0 and published = ref 0.0 in
  let factory =
    match
      Collector_set.resolve ~controller:"pid:obj=burn"
        ~burn:(fun () -> Atomic.get cell)
        "lxr"
    with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let r =
    fleet ~factory ~load:0.5 ~domains ~slo:(slo "p99:30us")
      ~on_burn:(fun b ->
        Atomic.set cell b;
        published := Float.max !published b)
      ()
  in
  (r, !published > 0.0)

(* (name, run, the path the name promises fired). *)
let scenarios : (string * (unit -> Fleet.result * bool)) list =
  let with_check f check () =
    let r = f () in
    (r, check r)
  in
  let state s (r : Fleet.result) =
    List.exists (fun (x : Fleet.replica_stats) -> x.r_state = s) r.per_replica
  in
  let restarts (r : Fleet.result) =
    List.fold_left
      (fun a (x : Fleet.replica_stats) -> a + x.r_restarts)
      0 r.per_replica
  in
  let ok check (r : Fleet.result) = r.ok && check r in
  [ ( "round-robin",
      with_check
        (fun () -> fleet ~policy:Repro_service.Policy.Round_robin ())
        (ok (fun r -> r.diversions = 0)) );
    ( "least-outstanding",
      with_check
        (fun () -> fleet ~policy:Repro_service.Policy.Least_outstanding ())
        (ok (fun r -> r.diversions = 0)) );
    ( "gc-aware",
      with_check
        (fun () -> fleet ~policy:Repro_service.Policy.Gc_aware ())
        (ok (fun r -> r.diversions > 0)) );
    ( "journal-rc",
      with_check
        (fun () -> fleet ~factory:Repro_collectors.Journal_rc.factory ())
        (ok (fun r -> r.wb_slow > 0.0)) );
    ( "verify-all",
      with_check
        (fun () ->
          fleet ~requests:600
            ~verify:Repro_verify.Verifier.[ Pre_pause; Post_pause; End_of_run ]
            ())
        (ok (fun r -> r.verifier_checks > 0 && r.violations = 0)) );
    ( "chaos-ci",
      fun () ->
        let a = ci_chaos 1 and b = ci_chaos 2 in
        ( a,
          a.ok && restarts a > 0
          && fleet_digest a = fleet_digest { b with domains = a.domains } ) );
    ( "crash-no-restart",
      with_check
        (fun () -> fleet ~chaos:(chaos "crash@0.3,auto-restart:off") ())
        (ok (fun r -> r.chaos_events = 1 && state "down" r && restarts r = 0)) );
    ( "shrink-below-live",
      with_check
        (fun () -> fleet ~chaos:(chaos "heap-shrink@0.3x0.05:r0") ())
        (ok (fun r ->
             let r0 = List.hd r.per_replica in
             r0.r_state = "down" && r0.r_restarts = 1 && r0.r_oom <> None)) );
    ( "stall-flash-crowd",
      with_check
        (fun () -> fleet ~chaos:(chaos "stall@0.3+0.2x8,flash-crowd@0.5+0.2x3") ())
        (ok (fun r -> r.chaos_events = 2)) );
    ( "hedge-deadline",
      with_check
        (fun () ->
          fleet ~replicas:4 ~requests:3000 ~load:0.6
            ~policy:Repro_service.Policy.Least_outstanding
            ~retry:(retry "timeout:200us,max:3,backoff:20us,hedge:20us") ())
        (ok (fun r -> r.hedges > 0 && r.hedge_wins > 0 && r.timeouts > 0)) );
    ( "slo-shed",
      with_check
        (fun () ->
          fleet ~replicas:4 ~requests:3000 ~load:0.6
            ~slo:(slo "p99:50us,burn-high:1.5,burn-low:0.5,shed:0.5") ())
        (ok (fun r -> r.shed > 0 && r.slo_shed_rounds > 0)) );
    ( "autoscale",
      with_check
        (fun () ->
          fleet ~replicas:2 ~requests:3000 ~load:0.5 ~slo:(slo "p99:30us")
            ~autoscale:
              (autoscale "max:5,min:1,up:1,down:0.5,patience:2,cooldown:4")
            ())
        (ok (fun r -> r.scale_ups > 0 && r.scale_downs > 0)) );
    ( "pid-burn",
      fun () ->
        let a, published = pid_burn 1 in
        let b, _ = pid_burn 2 in
        ( a,
          published
          && fleet_digest a = fleet_digest { b with domains = a.domains } ) );
    ( "setup-failure",
      with_check
        (fun () -> fleet ~heap_factor:0.05 ())
        (rejects "setup failed on replica") );
    ( "unsupported",
      with_check
        (fun () -> fleet ~factory:Repro_collectors.Conc_mark_evac.zgc ())
        (rejects "unsupported:") );
    ( "heap-below-block",
      with_check (fun () -> fleet ~heap_factor:0.001 ()) (rejects "block") );
    ( "no-request-model",
      with_check
        (fun () ->
          fleet
            ~workload:{ lusearch with Repro_mutator.Workload.request = None }
            ())
        (rejects "request model") );
    ( "no-replicas",
      with_check (fun () -> fleet ~replicas:0 ()) (rejects "replica") );
    ( "quantum-zero",
      with_check (fun () -> fleet ~quantum_ns:0.0 ()) (rejects "quantum") );
    ( "quantum-nan",
      with_check (fun () -> fleet ~quantum_ns:Float.nan ()) (rejects "quantum") );
    ( "autoscale-without-slo",
      with_check
        (fun () -> fleet ~autoscale:(autoscale "max:4") ())
        (rejects "SLO") ) ]

let test_fleet_golden () =
  let lines =
    List.map
      (fun (name, scenario) ->
        let r, fired = scenario () in
        if not fired then
          Alcotest.failf "fleet scenario %s: its path did not fire (%s)" name
            (Option.value r.Fleet.error ~default:"ok");
        let value =
          match r.error with
          | None -> fleet_digest r
          | Some e -> "error: " ^ e
        in
        name ^ " " ^ value)
      scenarios
  in
  check_golden (Filename.concat "golden" "fleet.digest") ~words:1 lines

let suite =
  [ ( "collectors:golden",
      [ Alcotest.test_case "every registered collector" `Slow
          test_collectors_golden ] );
    ( "fleet:golden",
      [ Alcotest.test_case "every fleet scenario" `Quick test_fleet_golden ] ) ]
