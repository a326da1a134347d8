let pct h p =
  match Repro_util.Histogram.percentile_opt h p with
  | Some v -> Float.of_int v /. 1e6
  | None -> 0.0

let print_extras (r : Runner.result) =
  let exercised = List.filter (fun (_, v) -> v > 0.0) r.ladder in
  if exercised <> [] then begin
    Printf.printf "  ladder     ";
    List.iter (fun (k, v) -> Printf.printf " %s=%.0f" k v) exercised;
    print_newline ()
  end;
  if r.verifier_checks > 0 then
    Printf.printf "  verifier    %d checks, %d violations\n" r.verifier_checks
      (List.length r.violations);
  List.iter
    (fun (point, label, viol) ->
      Printf.printf "  VIOLATION [%s:%s] %s\n"
        (Repro_verify.Verifier.safepoint_name point)
        label
        (Repro_verify.Verifier.violation_to_string viol))
    r.violations

(* --- Fleet results ------------------------------------------------------ *)

module Fleet = Repro_service.Fleet
module Policy = Repro_service.Policy

let fleet_pct h p =
  match Repro_util.Histogram.percentile_opt h p with
  | Some v -> Float.of_int v /. 1e3
  | None -> 0.0

(* The fleet totals of the write-barrier counters, each [None] when no
   replica reports it (the collector has no such counter). *)
let fleet_wb (r : Fleet.result) =
  let total sum get =
    if List.exists (fun s -> get s <> None) r.per_replica then Some sum else None
  in
  ( total r.wb_fast (fun (s : Fleet.replica_stats) -> s.r_wb_fast),
    total r.wb_slow (fun (s : Fleet.replica_stats) -> s.r_wb_slow) )

let count_or_dash = function Some v -> Printf.sprintf "%.0f" v | None -> "-"

let mean_utilization (r : Fleet.result) =
  match r.per_replica with
  | [] -> 0.0
  | reps ->
    List.fold_left (fun acc (s : Fleet.replica_stats) -> acc +. s.r_utilization)
      0.0 reps
    /. Float.of_int (List.length reps)

let print_fleet (r : Fleet.result) =
  let label =
    Printf.sprintf "%s/%s fleet k=%d %s @%.1fx" r.workload r.collector
      r.replicas (Policy.to_string r.policy) r.heap_factor
  in
  if not r.ok then
    Printf.printf "%s: FAILED (%s)\n" label
      (Option.value r.error ~default:"unknown")
  else begin
    Printf.printf "%s (domains=%d)\n" label r.domains;
    Printf.printf "  requests    %d completed=%d rejected=%d dropped=%d shed=%d\n"
      r.requests r.completed r.rejected r.dropped r.shed;
    Printf.printf "  wall        %.3f sim-ms (%s QPS)\n" (r.wall_ns /. 1e6)
      (match Fleet.qps_opt r with
      | Some q -> Printf.sprintf "%.0f" q
      | None -> "-");
    Printf.printf "  availability %.4f%%\n" (100.0 *. r.availability);
    if r.retries + r.hedges + r.timeouts > 0 then
      Printf.printf "  client      retries=%d hedges=%d (won %d) timeouts=%d\n"
        r.retries r.hedges r.hedge_wins r.timeouts;
    if r.chaos_events > 0 then
      Printf.printf "  chaos       %d firings\n" r.chaos_events;
    if r.scale_ups + r.scale_downs > 0 then
      Printf.printf "  autoscale   +%d / -%d replicas\n" r.scale_ups
        r.scale_downs;
    if r.slo_timeline <> [] then
      Printf.printf
        "  slo         peak-burn %.2f breach-rounds=%d shed-rounds=%d\n"
        r.slo_peak_burn r.slo_breach_rounds r.slo_shed_rounds;
    Printf.printf
      "  latency     p50 %.1f / p99 %.1f / p99.9 %.1f / p99.99 %.1f us\n"
      (fleet_pct r.latency 50.0) (fleet_pct r.latency 99.0)
      (fleet_pct r.latency 99.9) (fleet_pct r.latency 99.99);
    Printf.printf "  queueing    p50 %.1f / p99 %.1f / p99.9 %.1f us\n"
      (fleet_pct r.queueing 50.0) (fleet_pct r.queueing 99.0)
      (fleet_pct r.queueing 99.9);
    Printf.printf "  routing     %d gc-aware diversions\n" r.diversions;
    (match fleet_wb r with
    | None, None -> ()
    | wb_fast, wb_slow ->
      Printf.printf "  barrier     wb_fast=%s wb_slow=%s\n" (count_or_dash wb_fast)
        (count_or_dash wb_slow));
    if r.verifier_checks > 0 then
      Printf.printf "  verifier    %d checks, %d violations\n"
        r.verifier_checks r.violations;
    List.iter
      (fun (s : Fleet.replica_stats) ->
        Printf.printf
          "  replica %-2d  served=%-5d util=%4.1f%% pauses=%d gc=%.2fms %s%s%s\n"
          s.r_index s.r_served
          (100.0 *. s.r_utilization)
          s.r_pause_count
          (s.r_gc_cpu_ns /. 1e6)
          s.r_state
          (if s.r_restarts > 0 then
             Printf.sprintf " restarts=%d" s.r_restarts
           else "")
          (match s.r_oom with None -> "" | Some m -> " died: " ^ m))
      r.per_replica
  end

let fleet_row (r : Fleet.result) =
  if not r.ok then
    [ r.collector; Policy.to_string r.policy;
      "FAILED: " ^ Option.value r.error ~default:"unknown";
      "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
  else
    [ r.collector;
      Policy.to_string r.policy;
      (match Fleet.qps_opt r with
      | Some q -> Printf.sprintf "%.0f" (q /. 1e3)
      | None -> "-");
      Printf.sprintf "%.1f" (fleet_pct r.latency 50.0);
      Printf.sprintf "%.1f" (fleet_pct r.latency 99.0);
      Printf.sprintf "%.1f" (fleet_pct r.latency 99.9);
      Printf.sprintf "%.1f" (fleet_pct r.latency 99.99);
      Printf.sprintf "%.3f" (100.0 *. r.availability);
      string_of_int r.diversions;
      Printf.sprintf "%.1f" (100.0 *. mean_utilization r);
      count_or_dash (snd (fleet_wb r)) ]

let fleet_header =
  [ "Collector"; "Policy"; "kQPS"; "p50us"; "p99"; "p99.9"; "p99.99";
    "Avail%"; "Divert"; "Util%"; "WBslow" ]

let fleet_table ~title results =
  Repro_util.Table.render ~title ~header:fleet_header
    ~rows:(List.map fleet_row results) ()

let fleet_markdown results =
  Repro_util.Table.markdown ~header:fleet_header
    ~rows:(List.map fleet_row results)

(* Hand-rolled JSON: the harness has no serialization dependency, and
   the fleet and distill schemas are flat enough that escaping strings
   is the only subtlety. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let field (k, v) = Printf.sprintf "%S: %s" k v
let str s = Printf.sprintf "\"%s\"" (json_escape s)

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let num_or_null = function Some f -> num f | None -> "null"

let fleet_json results =
  let pctls h =
    Printf.sprintf "{%s}"
      (String.concat ", "
         (List.map
            (fun p ->
              field
                ( Printf.sprintf "p%g" p,
                  match Repro_util.Histogram.percentile_opt h p with
                  | Some v -> string_of_int v
                  | None -> "null" ))
            [ 50.0; 90.0; 99.0; 99.9; 99.99 ]))
  in
  let alist kvs =
    Printf.sprintf "{%s}"
      (String.concat ", " (List.map (fun (k, v) -> field (k, num v)) kvs))
  in
  let replica (s : Fleet.replica_stats) =
    Printf.sprintf "{%s}"
      (String.concat ", "
         (List.map field
            [ ("index", string_of_int s.r_index);
              ("served", string_of_int s.r_served);
              ("dropped", string_of_int s.r_dropped);
              ("utilization", num s.r_utilization);
              ("pause_count", string_of_int s.r_pause_count);
              ("gc_cpu_ns", num s.r_gc_cpu_ns);
              ("mutator_cpu_ns", num s.r_mutator_cpu_ns);
              ( "oom",
                match s.r_oom with None -> "null" | Some m -> str m );
              ("state", str s.r_state);
              ("restarts", string_of_int s.r_restarts);
              ("time_in_ns", alist s.r_time_in);
              ("ladder", alist s.r_ladder);
              ("wb_fast", num_or_null s.r_wb_fast);
              ("wb_slow", num_or_null s.r_wb_slow) ]))
  in
  let one (r : Fleet.result) =
    let wb_fast, wb_slow = fleet_wb r in
    Printf.sprintf "  {%s}"
      (String.concat ", "
         (List.map field
            [ ("workload", str r.workload);
              ("collector", str r.collector);
              ("policy", str (Policy.to_string r.policy));
              ("replicas", string_of_int r.replicas);
              ("domains", string_of_int r.domains);
              ("heap_factor", num r.heap_factor);
              ("ok", if r.ok then "true" else "false");
              ( "error",
                match r.error with None -> "null" | Some m -> str m );
              ("requests", string_of_int r.requests);
              ("completed", string_of_int r.completed);
              ("rejected", string_of_int r.rejected);
              ("dropped", string_of_int r.dropped);
              ("shed", string_of_int r.shed);
              ("timeouts", string_of_int r.timeouts);
              ("retries", string_of_int r.retries);
              ("hedges", string_of_int r.hedges);
              ("hedge_wins", string_of_int r.hedge_wins);
              ("availability", num r.availability);
              ("chaos_events", string_of_int r.chaos_events);
              ("scale_ups", string_of_int r.scale_ups);
              ("scale_downs", string_of_int r.scale_downs);
              ("slo_peak_burn", num r.slo_peak_burn);
              ("slo_breach_rounds", string_of_int r.slo_breach_rounds);
              ("slo_shed_rounds", string_of_int r.slo_shed_rounds);
              ("ladder", alist r.ladder);
              ("wb_fast", num_or_null wb_fast);
              ("wb_slow", num_or_null wb_slow);
              ("wall_ns", num r.wall_ns);
              ( "qps",
                match Fleet.qps_opt r with
                | Some q -> num q
                | None -> "null" );
              ("diversions", string_of_int r.diversions);
              ("verifier_checks", string_of_int r.verifier_checks);
              ("violations", string_of_int r.violations);
              ("latency_ns", pctls r.latency);
              ("queueing_ns", pctls r.queueing);
              ( "per_replica",
                Printf.sprintf "[%s]"
                  (String.concat ", " (List.map replica r.per_replica)) ) ]))
  in
  Printf.sprintf "[\n%s\n]\n" (String.concat ",\n" (List.map one results))

(* --- Distilled cost ----------------------------------------------------- *)

let distill_header =
  [ "Workload"; "Collector"; "Real ms"; "Ideal ms"; "Dist ms"; "o/h%";
    "CPU ms"; "STW ms"; "Conc ms"; "Barrier ms"; "Stall ms"; "Pauses" ]

let distill_cells (d : Distill.t) =
  let real = d.real in
  if not (Distill.ok d) then
    [ real.workload; Distill.collector d;
      "FAILED: " ^ Option.value real.error ~default:"unknown";
      "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
  else
    let ms v = Printf.sprintf "%.2f" (v /. 1e6) in
    [ real.workload; Distill.collector d;
      ms real.wall_ns;
      ms d.ideal.wall_ns;
      ms (Distill.distilled_wall_ns d);
      Printf.sprintf "%.1f" (Distill.wall_overhead_pct d);
      ms (Distill.distilled_cpu_ns d);
      ms real.stw_wall_ns;
      ms (Distill.concurrent_cpu_ns d);
      ms (Distill.barrier_ns d);
      ms (Distill.distilled_stall_ns d);
      string_of_int real.pause_count ]

let distill_table ~title rows =
  Repro_util.Table.render ~title ~header:distill_header
    ~rows:(List.map distill_cells rows) ()

let distill_markdown rows =
  Repro_util.Table.markdown ~header:distill_header
    ~rows:(List.map distill_cells rows)

let distill_json rows =
  let run_json (r : Runner.result) =
    Printf.sprintf "{%s}"
      (String.concat ", "
         (List.map field
            [ ("collector", str r.collector);
              ("wall_ns", num r.wall_ns);
              ("mutator_cpu_ns", num r.mutator_cpu_ns);
              ("gc_cpu_ns", num r.gc_cpu_ns);
              ("stw_wall_ns", num r.stw_wall_ns);
              ("stw_cpu_ns", num r.stw_cpu_ns);
              ("alloc_stall_ns", num r.alloc_stall_ns);
              ("barrier_cpu_ns", num r.barrier_cpu_ns);
              ("pause_count", string_of_int r.pause_count) ]))
  in
  let one (d : Distill.t) =
    let base =
      [ ("workload", str d.real.workload);
        ("collector", str (Distill.collector d));
        ("heap_factor", num d.real.heap_factor);
        ("ok", if Distill.ok d then "true" else "false");
        ( "error",
          match d.real.error with None -> "null" | Some m -> str m ) ]
    in
    let components =
      if not (Distill.ok d) then []
      else
        [ ("real", run_json d.real);
          ("ideal", run_json d.ideal);
          ("distilled_wall_ns", num (Distill.distilled_wall_ns d));
          ("distilled_cpu_ns", num (Distill.distilled_cpu_ns d));
          ("distilled_stall_ns", num (Distill.distilled_stall_ns d));
          ("barrier_ns", num (Distill.barrier_ns d));
          ("stw_wall_ns", num d.real.stw_wall_ns);
          ("stw_cpu_ns", num d.real.stw_cpu_ns);
          ("concurrent_cpu_ns", num (Distill.concurrent_cpu_ns d));
          ("wall_overhead_pct", num (Distill.wall_overhead_pct d));
          ("cpu_overhead_pct", num (Distill.cpu_overhead_pct d)) ]
    in
    Printf.sprintf "  {%s}"
      (String.concat ", " (List.map field (base @ components)))
  in
  Printf.sprintf "[\n%s\n]\n" (String.concat ",\n" (List.map one rows))

let print_result (r : Runner.result) =
  if not r.ok then begin
    Printf.printf "%s/%s @%.1fx: FAILED (%s)\n" r.workload r.collector r.heap_factor
      (Option.value r.error ~default:"unknown");
    print_extras r
  end
  else begin
    Printf.printf "%s/%s @%.1fx (heap %d KB)\n" r.workload r.collector r.heap_factor
      (r.heap_bytes / 1024);
    Printf.printf "  time        %.2f ms (mutator %.2f ms cpu, GC %.2f ms cpu)\n"
      (r.wall_ns /. 1e6) (r.mutator_cpu_ns /. 1e6) (r.gc_cpu_ns /. 1e6);
    Printf.printf "  pauses      %d totalling %.2f ms" r.pause_count
      (r.stw_wall_ns /. 1e6);
    if Repro_util.Histogram.count r.pauses > 0 then
      Printf.printf " (p50 %.2f / p99 %.2f ms)" (pct r.pauses 50.0) (pct r.pauses 99.0);
    print_newline ();
    Printf.printf "  allocated   %d KB in %d objects\n" (r.alloc_bytes / 1024)
      r.alloc_count;
    (match r.latency with
    | Some h when Repro_util.Histogram.count h > 0 ->
      Printf.printf
        "  latency     p50 %.3f / p99 %.3f / p99.9 %.3f / p99.99 %.3f ms (%.0f QPS)\n"
        (pct h 50.0) (pct h 99.0) (pct h 99.9) (pct h 99.99)
        (Runner.qps r)
    | Some _ | None -> ());
    List.iter (fun (k, v) -> Printf.printf "  %-24s %.0f\n" k v) r.collector_stats;
    print_extras r
  end
