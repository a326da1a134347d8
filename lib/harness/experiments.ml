open Repro_util
open Repro_mutator

type opts = { scale : float; iterations : int; seed : int }

(* The heavy sweeps run at reduced scale so the whole evaluation
   finishes in minutes, and the latency tables average three seeds.
   EXPERIMENTS.md's numbers were generated with these settings. *)
let default_opts name =
  let scale =
    match name with
    | "table5" | "table7" -> 0.5
    | "figure7" | "sensitivity" -> 0.3
    | _ -> 1.0
  in
  let iterations =
    match name with "table1" | "table4" | "figure5" -> 3 | _ -> 1
  in
  { scale; iterations; seed = 42 }

(* --- Shared machinery --------------------------------------------------- *)

let lxr = ("LXR", Repro_lxr.Lxr.factory)
let g1 = ("G1", Repro_collectors.G1.factory)
let shenandoah = ("Shenandoah", Repro_collectors.Conc_mark_evac.shenandoah)
let zgc = ("ZGC", Repro_collectors.Conc_mark_evac.zgc)

(* The paper's four-way comparison, in its column order. *)
let production = [ g1; lxr; shenandoah; zgc ]

let runs opts ?heap_config ~workload ~factory ~heap_factor () =
  List.init opts.iterations (fun i ->
      Runner.run ~seed:(opts.seed + (31 * i)) ~scale:opts.scale ?heap_config
        ~workload ~factory ~heap_factor ())

let ok_runs rs = List.filter (fun (r : Runner.result) -> r.ok) rs

(* The paper's "total time" measurements run every workload — including
   the request-based ones — to completion as fast as possible; strip the
   metered request model for throughput experiments. *)
let throughput_mode (w : Workload.t) = { w with request = None }

(* Mean of [f] over successful runs; [None] when none succeeded. *)
let mean_of rs f =
  match ok_runs rs with
  | [] -> None
  | ok -> Some (Stats.mean (List.map f ok))

let ci_of rs f =
  match ok_runs rs with
  | [] | [ _ ] -> 0.0
  | ok -> Stats.confidence95_fraction (List.map f ok)

let latency_pctl_ms (r : Runner.result) p =
  match r.latency with
  | Some h -> (
    match Histogram.percentile_opt h p with
    | Some v -> Float.of_int v /. 1e6
    | None -> 0.0)
  | None -> 0.0

let pause_pctl_ms (r : Runner.result) p =
  match Histogram.percentile_opt r.pauses p with
  | Some v -> Float.of_int v /. 1e6
  | None -> 0.0

let fmt_opt fmt = function None -> "-" | Some v -> Printf.sprintf fmt v

(* Mean of counter [k] over successful runs; [None] when none succeeded
   or a collector does not report [k]. *)
let mean_stat rs k =
  match ok_runs rs with
  | [] -> None
  | ok ->
    let vs = List.filter_map (fun r -> Runner.stat r k) ok in
    if List.compare_lengths vs ok = 0 then Some (Stats.mean vs) else None

(* --- Table 1 ------------------------------------------------------------ *)

let table1 opts =
  let w = Benchmarks.find "lusearch" in
  let configs =
    [ ("G1", snd g1, 1.3);
      ("Shenandoah", snd shenandoah, 1.3);
      ("LXR", snd lxr, 1.3);
      ("Shenandoah 10x", snd shenandoah, 10.0) ]
  in
  let rows =
    List.map
      (fun (name, factory, factor) ->
        let rs = runs opts ~workload:w ~factory ~heap_factor:factor () in
        let m f = mean_of rs f in
        name
        :: fmt_opt "%.0f" (m (fun r -> Runner.qps r /. 1e3))
        :: fmt_opt "%.1f" (m (fun r -> r.wall_ns /. 1e9 *. 1e3))
        :: List.map
             (fun p -> fmt_opt "%.2f" (m (fun r -> latency_pctl_ms r p)))
             [ 50.0; 99.0; 99.9; 99.99 ]
        @ List.map
            (fun p -> fmt_opt "%.2f" (m (fun r -> pause_pctl_ms r p)))
            [ 50.0; 99.0; 99.9; 99.99 ])
      configs
  in
  Table.render
    ~title:
      "Table 1: lusearch at 1.3x heap (time in sim-milliseconds).\n\
       Paper shape: Shenandoah collapses on throughput and tail latency at 1.3x;\n\
       LXR beats G1 on tail latency; Shenandoah recovers given a 10x heap."
    ~header:
      [ "Collector"; "kQPS"; "Time(ms)"; "Lat p50"; "p99"; "p99.9"; "p99.99";
        "Pause p50"; "p99"; "p99.9"; "p99.99" ]
    ~rows ()

(* --- Table 3 ------------------------------------------------------------ *)

let table3 opts =
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let rs =
          runs { opts with iterations = 1 } ~workload:w ~factory:(snd lxr)
            ~heap_factor:2.0 ()
        in
        match ok_runs rs with
        | [] -> [ w.name; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
        | r :: _ ->
          let heap_mb = Float.of_int w.min_heap_bytes /. 1e6 in
          let alloc_mb = Float.of_int r.alloc_bytes /. 1e6 in
          let rate =
            if r.mutator_cpu_ns > 0.0 then
              Float.of_int r.alloc_bytes /. (r.mutator_cpu_ns /. 1e9) /. 1e6
            else 0.0
          in
          [ w.name;
            Printf.sprintf "%.1f" heap_mb;
            Printf.sprintf "%.1f" alloc_mb;
            Printf.sprintf "%.0f" (alloc_mb /. heap_mb);
            Printf.sprintf "%.0f (%d)" rate w.paper_alloc_mb_s;
            Printf.sprintf "%d (%d)" (r.alloc_bytes / max 1 r.alloc_count)
              w.mean_object_bytes;
            Printf.sprintf "%.0f" (100.0 *. Float.of_int r.large_bytes
                                   /. Float.of_int (max 1 r.alloc_bytes));
            Printf.sprintf "%.1f (%d)"
              (100.0 *. Float.of_int r.survived_bytes
               /. Float.of_int (max 1 r.alloc_bytes))
              w.paper_survival_pct;
            string_of_int r.alloc_count ])
      Benchmarks.all
  in
  Table.render
    ~title:
      "Table 3: benchmark characteristics, measured on the simulator\n\
       (values in parentheses are the paper's; heaps are scaled ~1/32)."
    ~header:
      [ "Benchmark"; "Heap MB"; "Alloc MB"; "/heap"; "MB/s (paper)";
        "Obj B (paper)"; "%Lrg"; "%Srv (paper)"; "#Objects" ]
    ~rows ()

(* --- Table 4 / Figure 5 ------------------------------------------------- *)

let latency_matrix opts ~heap_factor =
  List.map
    (fun (w : Workload.t) ->
      ( w,
        List.map
          (fun (name, factory) ->
            (name, runs opts ~workload:w ~factory ~heap_factor ()))
          production ))
    Benchmarks.latency_sensitive

let table4 opts =
  let matrix = latency_matrix opts ~heap_factor:1.3 in
  let sections =
    List.map
      (fun ((w : Workload.t), per_collector) ->
        let rows =
          List.map
            (fun (name, rs) ->
              name
              :: List.concat_map
                   (fun p ->
                     match mean_of rs (fun r -> latency_pctl_ms r p) with
                     | None -> [ "-"; "" ]
                     | Some v ->
                       [ Printf.sprintf "%.2f" v;
                         Printf.sprintf "±%.3f"
                           (ci_of rs (fun r -> latency_pctl_ms r p)) ])
                   [ 50.0; 99.0; 99.9; 99.99 ])
            per_collector
        in
        Table.render
          ~title:(Printf.sprintf "Table 4 (%s): metered latency (ms) at 1.3x heap" w.name)
          ~header:[ "Collector"; "p50"; ""; "p99"; ""; "p99.9"; ""; "p99.99"; "" ]
          ~rows ())
      matrix
  in
  String.concat "\n" sections

let figure5 opts =
  let matrix = latency_matrix opts ~heap_factor:1.3 in
  let points = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.5; 99.9; 99.99 ] in
  let sections =
    List.map
      (fun ((w : Workload.t), per_collector) ->
        let rows =
          List.map
            (fun (name, rs) ->
              name
              :: List.map
                   (fun p ->
                     fmt_opt "%.2f" (mean_of rs (fun r -> latency_pctl_ms r p)))
                   points)
            per_collector
        in
        let table =
          Table.render
            ~title:
              (Printf.sprintf
                 "Figure 5 (%s): latency response curve (ms per percentile), 1.3x heap"
                 w.name)
            ~header:("Collector" :: List.map (Printf.sprintf "p%.2f") points)
            ~rows ()
        in
        (* The paper plots latency against -log10(1 - percentile); do the
           same so the tail spreads out. *)
        let series =
          List.filter_map
            (fun (name, rs) ->
              let pts =
                List.filter_map
                  (fun p ->
                    match mean_of rs (fun r -> latency_pctl_ms r p) with
                    | Some v when v > 0.0 ->
                      Some (-.log10 (1.0 -. (p /. 100.0)), v)
                    | Some _ | None -> None)
                  points
              in
              if pts = [] then None else Some (name, pts))
            per_collector
        in
        if series = [] then table
        else
          table ^ "\n"
          ^ Ascii_chart.render ~log_y:true
              ~title:(Printf.sprintf "  %s latency curve" w.name)
              ~x_label:"-log10(1 - percentile)" ~y_label:"latency ms" ~series ())
      matrix
  in
  String.concat "\n" sections

(* --- Table 5 ------------------------------------------------------------ *)

let table5 opts =
  let factors = [ 1.3; 2.0; 6.0 ] in
  let geo_ratio per_bench =
    (* Geometric mean of collector/G1 ratios over benchmarks where both
       succeeded. *)
    match List.filter_map (fun x -> x) per_bench with
    | [] -> None
    | ratios -> Some (Stats.geomean ratios)
  in
  let rows =
    List.concat_map
      (fun factor ->
        let latency_runs =
          List.map
            (fun (w : Workload.t) ->
              List.map
                (fun (name, factory) ->
                  (name, runs opts ~workload:w ~factory ~heap_factor:factor ()))
                production)
            Benchmarks.latency_sensitive
        in
        let time_runs =
          List.map
            (fun (w : Workload.t) ->
              List.map
                (fun (name, factory) ->
                  ( name,
                    runs { opts with iterations = 1 }
                      ~workload:(throughput_mode w) ~factory ~heap_factor:factor () ))
                production)
            Benchmarks.all
        in
        let ratio_for metric per_bench name =
          geo_ratio
            (List.map
               (fun per_collector ->
                 let value n =
                   mean_of (List.assoc n per_collector) metric
                 in
                 match (value "G1", value name) with
                 | Some base, Some v when base > 0.0 && v > 0.0 -> Some (v /. base)
                 | _ -> None)
               per_bench)
        in
        let lat name =
          ratio_for (fun r -> Float.max 0.001 (latency_pctl_ms r 99.99)) latency_runs name
        in
        let time name = ratio_for (fun r -> r.wall_ns) time_runs name in
        [ [ Printf.sprintf "%.1fx" factor;
            "1.00"; fmt_opt "%.2f" (lat "LXR"); fmt_opt "%.2f" (lat "Shenandoah");
            fmt_opt "%.2f" (lat "ZGC");
            "1.00"; fmt_opt "%.2f" (time "LXR"); fmt_opt "%.2f" (time "Shenandoah");
            fmt_opt "%.2f" (time "ZGC") ] ])
      factors
  in
  Table.render
    ~title:
      "Table 5: geomean 99.99% latency (4 latency workloads) and time (all\n\
       benchmarks) relative to G1. Paper: LXR 0.72/0.92/0.85 latency and\n\
       0.97/0.96/1.01 time at 1.3x/2x/6x; Shenandoah well above 1 throughout."
    ~header:
      [ "Heap"; "G1 lat"; "LXR lat"; "Shen lat"; "ZGC lat"; "G1 time";
        "LXR time"; "Shen time"; "ZGC time" ]
    ~rows ()

(* --- Table 6 ------------------------------------------------------------ *)

let table6 opts =
  let results =
    List.map
      (fun (w : Workload.t) ->
        ( w,
          List.map
            (fun (name, factory) ->
              (name, runs opts ~workload:(throughput_mode w) ~factory ~heap_factor:2.0 ()))
            production ))
      Benchmarks.all
  in
  let ratios = Hashtbl.create 8 in
  let note name v = Hashtbl.replace ratios name (v :: (try Hashtbl.find ratios name with Not_found -> [])) in
  let rows =
    List.map
      (fun ((w : Workload.t), per_collector) ->
        let time name = mean_of (List.assoc name per_collector) (fun r -> r.wall_ns) in
        let base = time "G1" in
        let rel name =
          match (base, time name) with
          | Some b, Some v when b > 0.0 ->
            let ratio = v /. b in
            note name ratio;
            Printf.sprintf "%.3f" ratio
          | _ -> "-"
        in
        [ w.name;
          fmt_opt "%.1f" (Option.map (fun v -> v /. 1e6) base);
          rel "LXR"; rel "Shenandoah"; rel "ZGC" ])
      results
  in
  let geo name =
    match Hashtbl.find_opt ratios name with
    | Some (_ :: _ as l) -> Printf.sprintf "%.3f" (Stats.geomean l)
    | Some [] | None -> "-"
  in
  let rows = rows @ [ [ "geomean"; ""; geo "LXR"; geo "Shenandoah"; geo "ZGC" ] ] in
  Table.render
    ~title:
      "Table 6: throughput at 2x heap — G1 time (sim ms) and relative time\n\
       (lower is better). Paper geomeans: LXR 0.958, Shenandoah 1.373."
    ~header:[ "Benchmark"; "G1 ms"; "LXR"; "Shen."; "ZGC" ]
    ~rows ()

(* --- Table 7 ------------------------------------------------------------ *)

let table7 opts =
  let variants =
    [ ("-SATB", Repro_lxr.Lxr.factory_no_satb_concurrency);
      ("-LD", Repro_lxr.Lxr.factory_no_lazy_decrements);
      ("STW", Repro_lxr.Lxr.factory_stw) ]
  in
  let one = { opts with iterations = 1 } in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let w = throughput_mode w in
        let base_rs = runs one ~workload:w ~factory:(snd lxr) ~heap_factor:2.0 () in
        match ok_runs base_rs with
        | [] -> [ w.name; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
        | r :: _ ->
          let time_ms = r.wall_ns /. 1e6 in
          let variant_ratio (_, factory) =
            let rs = runs one ~workload:w ~factory ~heap_factor:2.0 () in
            match mean_of rs (fun r' -> r'.wall_ns) with
            | Some v when r.wall_ns > 0.0 -> Printf.sprintf "%.2f" (v /. r.wall_ns)
            | Some _ | None -> "-"
          in
          (* Every column reads an LXR counter: a missing one is a renamed
             key, not a zero. *)
          let s k =
            match Runner.stat r k with
            | Some v -> v
            | None ->
              failwith
                (Printf.sprintf "table7: %s reports no counter %S" r.collector k)
          in
          let pauses_per_s =
            Float.of_int r.pause_count /. Float.max 1e-9 (r.wall_ns /. 1e9)
          in
          let satb_pct = 100.0 *. s "satb_pauses" /. Float.max 1.0 (s "rc_pauses") in
          let lazy_pct =
            100.0 *. s "unfinished_lazy_pauses" /. Float.max 1.0 (s "rc_pauses")
          in
          let inc_per_ms = s "increments" /. Float.max 1e-9 (r.mutator_cpu_ns /. 1e6) in
          let c = Repro_engine.Cost_model.default in
          let barrier_ns =
            (s "wb_fast" *. c.wb_fast_ns) +. (s "wb_slow" *. c.wb_slow_ns)
          in
          let overhead = 1.0 +. (barrier_ns /. Float.max 1.0 (r.mutator_cpu_ns -. barrier_ns)) in
          let total_reclaimed =
            Float.max 1.0 (s "young_reclaimed" +. s "old_reclaimed" +. s "satb_reclaimed")
          in
          let pct v = Printf.sprintf "%.1f" (100.0 *. v /. total_reclaimed) in
          let stuck =
            100.0 *. s "stuck_objects" /. Float.max 1.0 (s "mature_objects_seen")
          in
          let yc =
            let clean_bytes = s "clean_young_blocks" *. 32768.0 in
            if clean_bytes <= 0.0 then 0.0 else 100.0 *. s "young_evacuated" /. clean_bytes
          in
          [ w.name;
            Printf.sprintf "%.1f" time_ms ]
          @ List.map variant_ratio variants
          @ [ Printf.sprintf "%.1f" pauses_per_s;
              Printf.sprintf "%.2f" (pause_pctl_ms r 50.0);
              Printf.sprintf "%.2f" (pause_pctl_ms r 95.0);
              Printf.sprintf "%.0f" satb_pct;
              Printf.sprintf "%.0f" lazy_pct;
              Printf.sprintf "%.0f" inc_per_ms;
              Printf.sprintf "%.3f" overhead;
              pct (s "young_reclaimed");
              pct (s "old_reclaimed");
              pct (s "satb_reclaimed");
              Printf.sprintf "%.1f" stuck;
              Printf.sprintf "%.1f" yc ])
      Benchmarks.all
  in
  Table.render
    ~title:
      "Table 7: LXR breakdown at 2x heap. Concurrency columns are run-time\n\
       ratios of the ablated variant to default LXR (paper means: -SATB 1.00,\n\
       -LD 1.03, STW 1.03); reclamation splits are percentages of bytes."
    ~header:
      [ "Benchmark"; "ms"; "-SATB"; "-LD"; "STW"; "GC/s"; "p50ms"; "p95ms";
        "SATB%"; "!Lazy%"; "Inc/ms"; "o/h"; "Young"; "Old"; "SATB"; "Stuck"; "YC" ]
    ~rows ()

(* --- Figure 7 ------------------------------------------------------------ *)

let figure7 opts =
  let factors = [ 1.3; 1.5; 2.0; 3.0; 4.0; 6.0 ] in
  let collectors =
    [ ("Serial", Repro_collectors.Mark_sweep.serial);
      ("Parallel", Repro_collectors.Mark_sweep.parallel);
      g1; shenandoah; zgc; lxr;
      ("Semispace", Repro_collectors.Semispace.factory) ]
  in
  let shown = [ "Serial"; "Parallel"; "G1"; "Shenandoah"; "ZGC"; "LXR" ] in
  let one = { opts with iterations = 1 } in
  (* One run per heap factor, benchmark and collector, read by both
     panels. *)
  let matrix =
    List.map
      (fun factor ->
        let bench_runs (w : Workload.t) =
          List.map
            (fun (name, factory) ->
              let w = throughput_mode w in
              (name, List.hd (runs one ~workload:w ~factory ~heap_factor:factor ())))
            collectors
        in
        (factor, List.map bench_runs Benchmarks.all))
      factors
  in
  let table metric label =
    let chart_series = Hashtbl.create 8 in
    let rows =
      List.map
        (fun (factor, per_bench) ->
          Printf.sprintf "%.1fx" factor
          :: List.map
               (fun name ->
                 let overheads =
                   List.filter_map
                     (fun bench_runs ->
                       match Lbo.baseline metric (List.map snd bench_runs) with
                       | None -> None
                       | Some base ->
                         Lbo.overhead metric ~baseline:base (List.assoc name bench_runs))
                     per_bench
                 in
                 match overheads with
                 | [] -> "-"
                 | l ->
                   let m = Stats.mean l in
                   Hashtbl.replace chart_series name
                     ((factor, m)
                     :: (try Hashtbl.find chart_series name with Not_found -> []));
                   Printf.sprintf "%.2f" m)
               shown)
        matrix
    in
    let series =
      List.filter_map
        (fun name ->
          match Hashtbl.find_opt chart_series name with
          | Some (_ :: _ as pts) -> Some (name, List.rev pts)
          | Some [] | None -> None)
        shown
    in
    let chart =
      if series = [] then ""
      else
        "\n"
        ^ Ascii_chart.render
            ~title:(Printf.sprintf "  LBO overhead%s" label)
            ~x_label:"heap size (x minimum)" ~y_label:"overhead vs ideal" ~series ()
    in
    Table.render
      ~title:
        (Printf.sprintf
           "Figure 7%s: mean LBO overhead over all benchmarks (1.0 = ideal).\n\
            Paper shape: LXR lowest in all but the largest heaps (wall clock)\n\
            and lowest at every heap size for total cycles." label)
      ~header:("Heap" :: shown) ~rows ()
    ^ chart
  in
  table Lbo.Wall "a (wall-clock)" ^ "\n" ^ table Lbo.Cycles "b (total CPU cycles)"

(* --- §5.4 sensitivity ----------------------------------------------------- *)

let sensitivity opts =
  let one = { opts with iterations = 1 } in
  let heap_cfg ?block_bytes ?rc_bits ?free_buffer_entries () ~heap_bytes =
    Repro_heap.Heap_config.make ?block_bytes ?rc_bits ?free_buffer_entries
      ~heap_bytes ()
  in
  (* Default LXR at 2x, run once per benchmark: every row's baseline. *)
  let baselines =
    List.map
      (fun (w : Workload.t) ->
        let w = throughput_mode w in
        (w, runs one ~workload:w ~factory:(snd lxr) ~heap_factor:2.0 ()))
      Benchmarks.all
  in
  let geomean_time ?heap_config ?(factory = snd lxr) () =
    let ratios =
      List.filter_map
        (fun (w, base) ->
          let v = runs one ?heap_config ~workload:w ~factory ~heap_factor:2.0 () in
          match (mean_of base (fun r -> r.wall_ns), mean_of v (fun r -> r.wall_ns)) with
          | Some b, Some x when b > 0.0 && x > 0.0 -> Some (x /. b)
          | _ -> None)
        baselines
    in
    match ratios with [] -> None | l -> Some (Stats.geomean l)
  in
  let fixed_trigger =
    Repro_lxr.Lxr.factory_with ~name:"LXR fixed-trigger"
      ~config:(fun c ->
        { c with
          Repro_lxr.Lxr_config.survival_threshold_bytes = max_int;
          epoch_alloc_cap_bytes = c.Repro_lxr.Lxr_config.epoch_alloc_cap_bytes / 4 })
      ()
  in
  let no_young_evac =
    Repro_lxr.Lxr.factory_with ~name:"LXR -youngevac"
      ~config:(fun c -> { c with Repro_lxr.Lxr_config.evacuate_young = false })
      ()
  in
  let rows =
    [ ("16 KB blocks", geomean_time ~heap_config:(heap_cfg ~block_bytes:(16 * 1024) ()) ());
      ("32 KB blocks (default)", Some 1.0);
      ("64 KB blocks", geomean_time ~heap_config:(heap_cfg ~block_bytes:(64 * 1024) ()) ());
      ("2 RC bits (default)", Some 1.0);
      ("4 RC bits", geomean_time ~heap_config:(heap_cfg ~rc_bits:4 ()) ());
      ("8 RC bits", geomean_time ~heap_config:(heap_cfg ~rc_bits:8 ()) ());
      ("32-entry buffer (default)", Some 1.0);
      ("64-entry buffer", geomean_time ~heap_config:(heap_cfg ~free_buffer_entries:64 ()) ());
      ("128-entry buffer", geomean_time ~heap_config:(heap_cfg ~free_buffer_entries:128 ()) ());
      ("fixed allocation trigger (ablation)", geomean_time ~factory:fixed_trigger ());
      ("no young evacuation (ablation)", geomean_time ~factory:no_young_evac ());
      ("object-remembering barrier (§3.4)",
       geomean_time ~factory:Repro_lxr.Lxr.factory_object_barrier ());
      ("region-based evacuation sets (§3.3.2)",
       geomean_time ~factory:Repro_lxr.Lxr.factory_regional_evacuation ()) ]
  in
  Table.render
    ~title:
      "Sensitivity (§5.4) and design ablations: geomean time at 2x heap\n\
       relative to default LXR. Paper: halving blocks -0.6%, doubling +3.9%;\n\
       4 RC bits +2.9%, 8 bits +3.4%; 64/128-entry buffers +1.1%/+1.3%."
    ~header:[ "Configuration"; "Time ratio" ]
    ~rows:(List.map (fun (n, v) -> [ n; fmt_opt "%.3f" v ]) rows)
    ()

(* --- Fleet serving tier --------------------------------------------------- *)

let fleet opts =
  let w = Benchmarks.find "lusearch" in
  (* The serving regime: GC overhead at a 1.3x heap eats most of the
     nominal capacity, so the interesting operating point — short queues
     except where a collection intervenes — sits well below the
     workload's published target utilization. *)
  let load = 0.15 in
  let results =
    List.concat_map
      (fun (_, factory) ->
        List.map
          (fun (_, policy) ->
            Repro_service.Fleet.run
              (Repro_service.Fleet.config ~policy ~seed:opts.seed ~load
                 ~workload:w ~factory ()))
          Repro_service.Policy.all)
      production
  in
  Report.fleet_table
    ~title:
      "Fleet: lusearch at 1.3x heap, 4 replicas, open-loop Poisson arrivals\n\
       at 0.15x published utilization (latency in microseconds of sim time).\n\
       Expected shape: gc-aware routing collapses the p99/p99.9 tail that\n\
       round-robin eats by queueing arrivals behind per-replica pauses;\n\
       ZGC refuses the small heap and reports the refusal as data."
    results

(* --- Fleet resilience under chaos ------------------------------------------ *)

let chaos opts =
  let w = Benchmarks.find "lusearch" in
  let load = 0.15 in
  let parse what = function Ok v -> v | Error m -> invalid_arg (what ^ ": " ^ m) in
  (* One mid-run crash, a rolling restart into a 0.7x heap, and a 3x
     flash crowd — the three service-tier fault classes that stress a
     router differently: capacity loss, capacity degradation, and
     demand surge. *)
  let schedule =
    parse "chaos"
      (Repro_service.Chaos.of_spec
         "crash@0.3,heap-shrink@0.55x0.7,flash-crowd@0.6+0.1x3")
  in
  let retry =
    parse "retry"
      (Repro_service.Policy.Retry.of_spec "timeout:80ms,max:3,backoff:200us")
  in
  let slo = parse "slo" (Repro_service.Slo.of_spec "p99.9:10ms") in
  let run ~factory ~policy ~client =
    Repro_service.Fleet.run
      (Repro_service.Fleet.config ~policy ~seed:opts.seed ~load
         ~chaos:schedule ~retry:client ~slo ~workload:w ~factory ())
  in
  let results =
    List.concat_map
      (fun (_, factory) ->
        [ run ~factory ~policy:Repro_service.Policy.Round_robin
            ~client:Repro_service.Policy.Retry.none;
          run ~factory ~policy:Repro_service.Policy.Gc_aware ~client:retry ])
      [ g1; lxr; shenandoah ]
  in
  Report.fleet_table
    ~title:
      "Fleet resilience: lusearch at 1.3x heap, 4 replicas, seeded chaos\n\
       (replica crash at 30%, rolling restart into a 0.7x heap at 55%,\n\
       3x flash crowd over [60%, 70%)). Round-robin with a bare client\n\
       vs gc-aware routing with deadline/retry (80ms, 3 attempts).\n\
       Expected shape: gc-aware + retry wins p99.9 and availability —\n\
       it routes around the dead and warming replicas that round-robin\n\
       keeps feeding, and retries recover the crash-dumped requests."
    results

(* --- Journal flood: the drain-lag pathology -------------------------------- *)

let journal_rc = ("Journal-RC", Repro_collectors.Journal_rc.factory)

let journal_flood opts =
  (* lusearch is the low-churn control; jflood fires a 24-store pointer
     burst per allocation. The journal barrier emits one record per
     store, so burst churn outruns the concurrent drain: the snapshot
     pause inherits the unfolded journal (in-pause %), pause count and
     total STW inflate, and GC CPU balloons. LXR's coalescing barrier
     logs a field at most once per epoch, so the same churn costs it a
     bounded number of slow paths — the regime where LXR wins. In-pause %
     is the share of the records folded inside the measurement window
     that pauses folded; a pause can catch up records journaled before
     the window opened, so [journal_records] is not the denominator. *)
  let rows =
    List.concat_map
      (fun wname ->
        let w = throughput_mode (Benchmarks.find wname) in
        List.map
          (fun (cname, factory) ->
            let rs = runs opts ~workload:w ~factory ~heap_factor:2.0 () in
            let m f = mean_of rs f in
            (* Read only where [mean_stat] found the counter in every
               successful run. *)
            let get k r = Option.get (Runner.stat r k) in
            let folded r = get "pause_records" r +. get "conc_records" r in
            [ wname;
              cname;
              fmt_opt "%.1f" (m (fun r -> r.Runner.wall_ns /. 1e6));
              fmt_opt "%.1f" (m (fun r -> r.Runner.gc_cpu_ns /. 1e6));
              fmt_opt "%.0f" (m (fun r -> Float.of_int r.Runner.pause_count));
              fmt_opt "%.2f" (m (fun r -> r.Runner.stw_wall_ns /. 1e6));
              fmt_opt "%.0f" (mean_stat rs "wb_slow");
              (match (mean_stat rs "pause_records", mean_stat rs "conc_records") with
              | Some p, Some c when p +. c > 0.0 ->
                fmt_opt "%.1f"
                  (m (fun r -> 100.0 *. get "pause_records" r /. folded r))
              | _ -> "-");
              (match mean_stat rs "journal_records" with
              | Some j when j > 0.0 -> fmt_opt "%.0f" (mean_stat rs "backlog_peak")
              | Some _ | None -> "-") ])
          [ g1; lxr; shenandoah; journal_rc ])
      [ "lusearch"; "jflood" ]
  in
  Table.render
    ~title:
      "Journal flood: pointer-churn bursts vs the journal-RC drain\n\
       (2x heap; jflood = 24 mature pointer stores per allocation).\n\
       Expected shape: on lusearch record volume is small (few slow\n\
       paths, modest backlog) and Journal-RC is competitive; on jflood\n\
       the journal outruns the drain -- the snapshot pauses inherit\n\
       all records, pause count and GC CPU inflate, and LXR's\n\
       coalescing barrier (bounded slow paths per epoch) wins."
    ~header:
      [ "Workload"; "Collector"; "Time ms"; "GC cpu ms"; "Pauses"; "STW ms";
        "WB slow"; "In-pause %"; "Backlog pk" ]
    ~rows ()

(* --- Distilled cost (Cai et al. methodology) ------------------------------ *)

(* Every costed collector: LXR and the eight others. *)
let distill_collectors = lxr :: Collector_set.non_lxr

(* One distilled row per workload and contender, each against the
   workload's ideal baseline run. *)
let distilled_rows opts ~heap_factor ~contenders workloads =
  let one = { opts with iterations = 1 } in
  List.concat_map
    (fun wname ->
      let workload = throughput_mode (Benchmarks.find wname) in
      Distill.against contenders ~run:(fun factory ->
          List.hd (runs one ~workload ~factory ~heap_factor ())))
    workloads

let distill opts =
  let rows =
    distilled_rows opts ~heap_factor:2.0 ~contenders:distill_collectors
      [ "lusearch"; "jflood"; "fragger"; "phaser" ]
  in
  Report.distill_table
    ~title:
      "Distilled cost at 2x heap: each collector against the\n\
       free-reclamation baseline (same mutator work, zero reclamation\n\
       cost). Dist = real - ideal wall time; its components are STW\n\
       pauses, concurrent GC CPU, barrier cycles and allocation stalls.\n\
       The baseline collects only when an allocation fails, so its\n\
       mutator pays allocator slow paths that an evacuating collector\n\
       avoids: Dist is an estimate, and can be below the row's STW."
    rows

(* --- Online controllers vs static configuration ----------------------------- *)

let controller opts =
  let module C = Repro_policy.Controller in
  let parse spec =
    match C.parse spec with Ok s -> s | Error m -> invalid_arg m
  in
  let contenders =
    [ ("LXR static", snd lxr);
      ("LXR hill", C.lxr_factory ~name:"LXR hill" (parse "hill"));
      ("LXR pid", C.lxr_factory ~name:"LXR pid" (parse "pid")) ]
  in
  let rows =
    distilled_rows opts ~heap_factor:1.5 ~contenders [ "fragger"; "phaser" ]
  in
  Report.distill_table
    ~title:
      "Online controllers on the adversarial workloads at 1.5x heap:\n\
       static scaled-default LXR vs the hill-climb and PID controllers\n\
       re-tuning the trigger knobs between epochs against the epoch-cost\n\
       objective. Expected shape: on at least one adversary a controller\n\
       beats the static configuration on distilled cost; trajectories\n\
       are deterministic per seed."
    rows

let all =
  [ ("table1", table1); ("table3", table3); ("table4", table4);
    ("figure5", figure5); ("table5", table5); ("table6", table6);
    ("table7", table7); ("figure7", figure7); ("sensitivity", sensitivity);
    ("fleet", fleet); ("chaos", chaos); ("journal_flood", journal_flood);
    ("distill", distill); ("controller", controller) ]

let names = List.map fst all
let by_name name = List.assoc_opt name all
