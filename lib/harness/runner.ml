open Repro_util
open Repro_heap
open Repro_engine
module Verifier = Repro_verify.Verifier

type result = {
  workload : string;
  collector : string;
  heap_factor : float;
  heap_bytes : int;
  ok : bool;
  error : string option;
  wall_ns : float;
  mutator_cpu_ns : float;
  gc_cpu_ns : float;
  stw_wall_ns : float;
  stw_cpu_ns : float;
  alloc_stall_ns : float;
  barrier_cpu_ns : float;
  pause_count : int;
  pauses : Histogram.t;
  latency : Histogram.t option;
  requests : int;
  alloc_bytes : int;
  alloc_count : int;
  survived_bytes : int;
  large_bytes : int;
  collector_stats : (string * float) list;
  ladder : (string * float) list;
  violations : (Verifier.safepoint * string * Verifier.violation) list;
  verifier_checks : int;
}

let stat r key = match List.assoc_opt key r.collector_stats with Some v -> v | None -> 0.0

let qps r =
  if r.requests = 0 || r.wall_ns <= 0.0 then 0.0
  else Float.of_int r.requests /. (r.wall_ns /. 1e9)

let failed ~workload ~collector ~heap_factor ~heap_bytes msg =
  { workload;
    collector;
    heap_factor;
    heap_bytes;
    ok = false;
    error = Some msg;
    wall_ns = 0.0;
    mutator_cpu_ns = 0.0;
    gc_cpu_ns = 0.0;
    stw_wall_ns = 0.0;
    stw_cpu_ns = 0.0;
    alloc_stall_ns = 0.0;
    barrier_cpu_ns = 0.0;
    pause_count = 0;
    pauses = Histogram.create ();
    latency = None;
    requests = 0;
    alloc_bytes = 0;
    alloc_count = 0;
    survived_bytes = 0;
    large_bytes = 0;
    collector_stats = [];
    ladder = [];
    violations = [];
    verifier_checks = 0 }

(* Shared engine lifecycle: build heap/sim/api, attach the verifier and
   any fault injector or trace recorder, let [driver] produce the
   mutator-side output (generatively or by replay), then assemble the
   result. [driver] receives the engine and the measurement-start
   callback that zeroes the accumulators. *)
let execute ?ids_hint ~workload_name ~heap_factor ~cfg ~verify ~inject
    ~recorder ~factory ~driver () =
  let heap = Heap.create ?ids_hint cfg in
  let sim = Sim.create Cost_model.default in
  (match inject with Some f -> Sim.set_faults sim f | None -> ());
  (match recorder with
  | Some r -> Sim.set_tracer sim (Repro_trace.Recorder.tracer r)
  | None -> ());
  match
    let api = Api.create sim heap factory in
    (match recorder with
    | Some r ->
      Repro_trace.Recorder.set_collector r (Api.collector api).Collector.name
    | None -> ());
    let verifier =
      if verify = [] then None
      else Some (Verifier.attach ~points:verify api)
    in
    let measure_start = ref 0.0 in
    let stats_base = ref [] in
    let on_measurement_start () =
      Sim.reset_measurement sim;
      measure_start := Sim.now sim;
      stats_base := (Api.collector api).Collector.stats ()
    in
    let out : Repro_mutator.Mut_engine.output = driver api ~on_measurement_start in
    (match verifier with Some v -> Verifier.finish v | None -> ());
    (api, verifier, out, !measure_start, !stats_base)
  with
  | api, verifier, out, measure_start, stats_base ->
    let net_stats =
      List.map
        (fun (k, v) ->
          match List.assoc_opt k stats_base with
          | Some v0 -> (k, v -. v0)
          | None -> (k, v))
        ((Api.collector api).Collector.stats ())
    in
    let violations, verifier_checks =
      match verifier with
      | Some v -> (Verifier.violations v, Verifier.checks_run v)
      | None -> ([], 0)
    in
    let error =
      match out.oom with
      | Some msg -> Some ("out of memory: " ^ msg)
      | None ->
        if violations = [] then None
        else
          Some
            (Printf.sprintf "%d integrity violations (first: %s)"
               (List.length violations)
               (match violations with
               | (_, _, viol) :: _ -> Verifier.violation_to_string viol
               | [] -> ""))
    in
    { workload = workload_name;
      collector = (Api.collector api).Collector.name;
      heap_factor;
      heap_bytes = cfg.Heap_config.heap_bytes;
      ok = error = None;
      error;
      wall_ns = Sim.now sim -. measure_start;
      mutator_cpu_ns = Sim.mutator_cpu sim;
      gc_cpu_ns = Sim.gc_cpu sim;
      stw_wall_ns = Sim.stw_wall sim;
      stw_cpu_ns = Sim.stw_cpu sim;
      alloc_stall_ns = Sim.alloc_stall_ns sim;
      barrier_cpu_ns = Sim.barrier_cpu sim;
      pause_count = Sim.pause_count sim;
      pauses = Sim.pauses sim;
      latency = out.latency;
      requests = out.requests;
      alloc_bytes = Sim.alloc_bytes sim;
      alloc_count = Sim.alloc_count sim;
      survived_bytes = out.survived_bytes;
      large_bytes = out.large_bytes;
      collector_stats = net_stats;
      ladder = Api.ladder_alist (Api.ladder api);
      violations;
      verifier_checks }
  | exception Collector.Unsupported msg ->
    failed ~workload:workload_name ~collector:"?" ~heap_factor
      ~heap_bytes:cfg.Heap_config.heap_bytes ("unsupported: " ^ msg)

let run ?(seed = 42) ?(scale = 1.0) ?gc_threads:_ ?heap_config
    ?(verify = []) ?inject ?record_to ~workload ~factory ~heap_factor () =
  let w = (workload : Repro_mutator.Workload.t) in
  let heap_bytes = int_of_float (heap_factor *. Float.of_int w.min_heap_bytes) in
  match
    match heap_config with
    | Some f -> f ~heap_bytes
    | None -> Heap_config.make ~heap_bytes ()
  with
  | _ when not (Float.is_finite scale && scale > 0.0) ->
    (* Any such scale would silently run the minimal workload. *)
    failed ~workload:w.name ~collector:"?" ~heap_factor ~heap_bytes
      (Printf.sprintf "scale must be finite and > 0 (got %g)" scale)
  | exception Invalid_argument msg ->
    (* No heap geometry fits (e.g. less than one block). *)
    failed ~workload:w.name ~collector:"?" ~heap_factor ~heap_bytes msg
  | cfg ->
    let recorder =
      match record_to with
      | None -> None
      | Some _ ->
        Some
          (Repro_trace.Recorder.create ~workload:w.name ~seed ~scale
             ~heap_factor ~cfg ())
    in
    let prng = Prng.create seed in
    let r =
      execute ~workload_name:w.name ~heap_factor ~cfg ~verify ~inject
        ~recorder ~factory
        ~driver:(fun api ~on_measurement_start ->
          Repro_mutator.Mut_engine.run ~on_measurement_start api prng w ~scale)
        ()
    in
    (match (recorder, record_to) with
    | Some rec_, Some path -> Repro_trace.Recorder.save rec_ path
    | _ -> ());
    r

let replay ?gc_threads:_ ?(verify = []) ?inject ?record_to ~trace ~factory
    () =
  let t = (trace : Repro_trace.Trace_format.t) in
  let h = t.header in
  (* The trace tells us the highest id it will mention; presize the
     id-indexed map so replay never pays doubling-growth churn there.
     Slot arrays are left at their default: they track peak-live objects
     (slots are reused after frees), so sizing them by total allocations
     would overshoot by orders of magnitude. *)
  let _, max_id = Repro_trace.Trace_format.alloc_stats t in
  let ids_hint = max 16 (max_id + 2) in
  let cfg = Repro_trace.Trace_format.heap_config h in
  let recorder =
    match record_to with
    | None -> None
    | Some _ ->
      Some
        (Repro_trace.Recorder.create ~workload:h.workload ~seed:h.seed
           ~scale:h.scale ~heap_factor:h.heap_factor ~cfg ())
  in
  let r =
    execute ~ids_hint ~workload_name:h.workload ~heap_factor:h.heap_factor
      ~cfg ~verify ~inject ~recorder ~factory
      ~driver:(fun api ~on_measurement_start ->
        Repro_trace.Replay.run ~on_measurement_start api t)
      ()
  in
  (match (recorder, record_to) with
  | Some rec_, Some path -> Repro_trace.Recorder.save rec_ path
  | _ -> ());
  r
