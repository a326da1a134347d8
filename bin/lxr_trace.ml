(* lxr_trace — trace capture, replay and cross-collector differential
   testing (see DESIGN.md "Trace capture & replay").

   Subcommands:
     record   run a benchmark and capture its mutator event stream
     replay   drive one collector from a trace file (no generative
              mutator in the loop)
     stat     summarize a trace file
     diff     replay one trace through several collectors in lockstep
              and cross-check live sets / counters / integrity oracle *)

open Cmdliner
module Trace_format = Repro_trace.Trace_format
module Differ = Repro_trace.Differ

let die msg =
  Printf.eprintf "%s\n" msg;
  exit 2

let find_collector name =
  match Repro_harness.Collector_set.find name with
  | Ok f -> f
  | Error msg -> die msg

let load_trace path =
  match Trace_format.of_file path with
  | Ok t -> t
  | Error msg -> die (Printf.sprintf "%s: %s" path msg)

let trace_arg =
  let doc = "Trace file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let collector_arg =
  let doc = "Collector name." in
  Arg.(value & opt string "lxr" & info [ "c"; "collector" ] ~docv:"NAME" ~doc)

let verify_arg =
  let doc =
    "Attach the heap-integrity verifier ('pre', 'post', 'end' or 'all')."
  in
  Arg.(value & opt (some string) None & info [ "verify" ] ~docv:"POINTS" ~doc)

let parse_verify = function
  | None -> []
  | Some s -> (
    match Repro_verify.Verifier.points_of_string s with
    | Ok points -> points
    | Error msg -> die (Printf.sprintf "--verify: %s" msg))

let parse_inject seed = function
  | None -> None
  | Some s -> (
    match Repro_engine.Fault.of_spec ~seed s with
    | Ok f -> Some f
    | Error msg -> die (Printf.sprintf "--inject: %s" msg))

(* --gc-threads accepts a work-packet lane count in [1, 64] or 'auto'
   (the runtime's recommendation); results are bit-identical for every
   value, so this is purely a host wall-clock knob. *)
let gc_threads_arg =
  let doc =
    "Work-packet lanes for collector phases (1-64, or 'auto'). Results \
     are bit-identical for every value."
  in
  Arg.(value & opt string "1" & info [ "gc-threads" ] ~docv:"N|auto" ~doc)

let parse_gc_threads s =
  match int_of_string_opt s with
  | Some n when n >= 1 && n <= 64 -> n
  | Some n ->
    die (Printf.sprintf "--gc-threads: %d is out of range; expected 1-64 or 'auto'" n)
  | None ->
    if String.lowercase_ascii s = "auto" then
      min 64 (max 1 (Domain.recommended_domain_count ()))
    else
      die
        (Printf.sprintf
           "unknown --gc-threads value %S%s; expected a count (1-64) or 'auto'"
           s
           (Repro_util.Suggest.hint ~candidates:[ "auto" ] s))

(* --- record ------------------------------------------------------------ *)

let record_cmd =
  let bench_arg =
    let doc = "Benchmark name (see `lxr_sim list')." in
    Arg.(value & opt string "lusearch" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)
  in
  let factor_arg =
    let doc = "Heap size as a multiple of the benchmark's minimum heap." in
    Arg.(value & opt float 2.0 & info [ "f"; "heap-factor" ] ~docv:"X" ~doc)
  in
  let scale_arg =
    let doc = "Workload scale." in
    Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"X" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Output trace file (default: <bench>.lxrtrace)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run bench collector factor scale seed out =
    let w =
      match Repro_harness.Collector_set.find_workload bench with
      | Ok w -> w
      | Error msg -> die msg
    in
    let factory = find_collector collector in
    let path = Option.value out ~default:(bench ^ ".lxrtrace") in
    let r =
      Repro_harness.Runner.run ~seed ~scale ~record_to:path ~workload:w ~factory
        ~heap_factor:factor ()
    in
    Repro_harness.Report.print_result r;
    (match Trace_format.of_file path with
    | Ok t ->
      Printf.printf "  trace       %s: %d events, %d bytes\n" path
        (Trace_format.num_events t)
        (let ic = open_in_bin path in
         let n = in_channel_length ic in
         close_in ic;
         n)
    | Error msg -> die (Printf.sprintf "recorded trace failed to parse: %s" msg));
    if not r.ok then exit 1
  in
  let term =
    Term.(
      const run $ bench_arg $ collector_arg $ factor_arg $ scale_arg $ seed_arg
      $ out_arg)
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Run a benchmark and record its mutator event stream.")
    term

(* --- replay ------------------------------------------------------------ *)

let replay_cmd =
  let inject_arg =
    let doc = "Inject deterministic faults during the replay (class:rate,...)." in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc)
  in
  let rerecord_arg =
    let doc =
      "Re-record the replay's event stream to $(docv); for a faithful \
       replay the result is byte-identical to the input trace."
    in
    Arg.(value & opt (some string) None & info [ "o"; "record" ] ~docv:"FILE" ~doc)
  in
  let run path collector verify inject rerecord gc_threads =
    let trace = load_trace path in
    let factory = find_collector collector in
    let points = parse_verify verify in
    let fault = parse_inject trace.header.seed inject in
    let gc_threads = parse_gc_threads gc_threads in
    let r =
      Repro_harness.Runner.replay ~gc_threads ~verify:points ?inject:fault
        ?record_to:rerecord ~trace ~factory ()
    in
    Printf.printf
      "replaying %s (recorded: %s under %s, seed %d, scale %g, %d events)\n" path
      trace.header.workload trace.header.collector trace.header.seed
      trace.header.scale (Trace_format.num_events trace);
    Repro_harness.Report.print_result r;
    if not r.ok then exit 1
  in
  let term =
    Term.(
      const run $ trace_arg $ collector_arg $ verify_arg $ inject_arg
      $ rerecord_arg $ gc_threads_arg)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Drive one collector from a recorded trace.")
    term

(* --- stat -------------------------------------------------------------- *)

let stat_cmd =
  let run path =
    let t = load_trace path in
    let h = t.header in
    Printf.printf "%s: trace v%d\n" path h.version;
    Printf.printf "  workload    %s (seed %d, scale %g)\n" h.workload h.seed h.scale;
    Printf.printf "  recorded    under %s at %.1fx heap (%d KB)\n" h.collector
      h.heap_factor (h.heap_bytes / 1024);
    Printf.printf
      "  geometry    %d KB blocks, %d B lines, %d B granules, %d RC bits, LOS > %d B\n"
      (h.block_bytes / 1024) h.line_bytes h.granule_bytes h.rc_bits
      h.los_threshold;
    let counts = Hashtbl.create 16 in
    let sizes = Repro_util.Histogram.create () in
    let alloc_bytes = ref 0 in
    let large = ref 0 in
    let work_ns = ref 0.0 in
    Array.iter
      (fun ev ->
        let name = Trace_format.event_name ev in
        Hashtbl.replace counts name
          (1 + Option.value (Hashtbl.find_opt counts name) ~default:0);
        match ev with
        | Trace_format.Alloc a ->
          Repro_util.Histogram.record sizes a.size;
          alloc_bytes := !alloc_bytes + a.size;
          if a.large then incr large
        | Trace_format.Work w -> work_ns := !work_ns +. w.ns
        | _ -> ())
      (Trace_format.events t);
    Printf.printf "  events      %d total\n" (Trace_format.num_events t);
    List.iter
      (fun name ->
        match Hashtbl.find_opt counts name with
        | Some n -> Printf.printf "    %-18s %d\n" name n
        | None -> ())
      [ "alloc"; "alloc-failed"; "write"; "read"; "root"; "work"; "safepoint";
        "request-start"; "request-end"; "measurement-start"; "survived";
        "finish" ];
    (* _opt accessors: a truncated or setup-only trace may have no allocations. *)
    let pct p =
      match Repro_util.Histogram.percentile_opt sizes p with
      | Some v -> string_of_int v
      | None -> "-"
    in
    let mean =
      match Repro_util.Histogram.mean_opt sizes with
      | Some m -> Printf.sprintf "%.0f" m
      | None -> "-"
    in
    Printf.printf
      "  allocation  %d KB requested; size mean %s B, p50 %s, p99 %s; %d large\n"
      (!alloc_bytes / 1024) mean (pct 50.0) (pct 99.0) !large;
    Printf.printf "  compute     %.3f ms recorded work\n" (!work_ns /. 1e6)
  in
  let term = Term.(const run $ trace_arg) in
  Cmd.v (Cmd.info "stat" ~doc:"Summarize a trace file.") term

(* --- diff -------------------------------------------------------------- *)

let diff_cmd =
  let collectors_arg =
    let doc = "Comma-separated collectors to replay through (first is the baseline)." in
    Arg.(
      value
      & opt string "lxr,g1,shenandoah"
      & info [ "c"; "collectors" ] ~docv:"NAMES" ~doc)
  in
  let every_arg =
    let doc =
      "Also checkpoint every $(docv) events (0 = only explicit safepoints \
       and finish)."
    in
    Arg.(value & opt int 4096 & info [ "every" ] ~docv:"N" ~doc)
  in
  let no_verify_arg =
    let doc = "Skip the per-collector heap-integrity oracle at checkpoints." in
    Arg.(value & flag & info [ "no-verify" ] ~doc)
  in
  let inject_arg =
    let doc = "Inject faults into one lane (demonstrates divergence localisation)." in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc)
  in
  let inject_into_arg =
    let doc = "Collector lane --inject applies to (default: the first)." in
    Arg.(value & opt (some string) None & info [ "inject-into" ] ~docv:"NAME" ~doc)
  in
  let run path collectors every no_verify inject inject_into gc_threads =
    let trace = load_trace path in
    let names =
      String.split_on_char ',' collectors
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if List.length names < 2 then die "diff needs at least two collectors";
    (* The free-reclamation baseline is a methodological yardstick, not a
       collector under test — keep it out of lockstep comparisons. *)
    List.iter
      (fun n ->
        if not (Repro_collectors.Registry.lockstep_ok n) then
          die
            (Printf.sprintf
               "%S is the distilled-cost baseline, not a collector under \
                test; use `lxr_trace distill' to compare against it"
               n))
      names;
    let lanes = List.map (fun n -> (n, find_collector n)) names in
    let fault = parse_inject trace.header.seed inject in
    let gc_threads = parse_gc_threads gc_threads in
    let inject =
      match fault with
      | None -> None
      | Some f -> Some (Option.value inject_into ~default:(List.hd names), f)
    in
    match
      Differ.run ~verify:(not no_verify) ~every ?inject ~gc_threads ~trace
        ~collectors:lanes ()
    with
    | report ->
      print_endline (Differ.report_to_string report);
      if report.total_divergences > 0 then exit 1
    | exception Repro_collectors.Conc_mark_evac.Unsupported msg ->
      die ("unsupported: " ^ msg)
  in
  let term =
    Term.(
      const run $ trace_arg $ collectors_arg $ every_arg $ no_verify_arg
      $ inject_arg $ inject_into_arg $ gc_threads_arg)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Replay one trace through several collectors and cross-check them.")
    term

(* --- distill ----------------------------------------------------------- *)

let distill_cmd =
  let collectors_arg =
    let doc =
      "Comma-separated collectors to account (each replayed once, plus \
       one shared ideal-baseline replay)."
    in
    Arg.(
      value
      & opt string "lxr,g1,shenandoah,journal_rc"
      & info [ "c"; "collectors" ] ~docv:"NAMES" ~doc)
  in
  let format_arg =
    let doc = "Output format: text, md or json." in
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run path collectors format gc_threads =
    let trace = load_trace path in
    let gc_threads = parse_gc_threads gc_threads in
    let names =
      String.split_on_char ',' collectors
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if names = [] then die "distill needs at least one collector";
    let lanes = List.map (fun n -> (n, find_collector n)) names in
    let ideal = find_collector "ideal" in
    let base = Repro_harness.Runner.replay ~gc_threads ~trace ~factory:ideal () in
    let rows =
      List.map
        (fun (name, factory) ->
          let r = Repro_harness.Runner.replay ~gc_threads ~trace ~factory () in
          let row =
            Repro_harness.Report.distill_of ~workload:trace.header.workload
              ~heap_factor:trace.header.heap_factor r base
          in
          if row.Repro_harness.Report.d_error = None then row
          else { row with Repro_harness.Report.d_collector = name })
        lanes
    in
    (match format with
    | "text" ->
      print_endline
        (Repro_harness.Report.distill_table
           ~title:
             (Printf.sprintf
                "Distilled cost on %s (%s, %d events): real replay minus the\n\
                 exact free-reclamation baseline on the identical mutator work."
                path trace.header.workload
                (Trace_format.num_events trace))
           rows)
    | "md" -> print_string (Repro_harness.Report.distill_markdown rows)
    | "json" -> print_string (Repro_harness.Report.distill_json rows)
    | other ->
      die
        (Printf.sprintf "unknown --format %S%s; expected text, md or json"
           other
           (Repro_util.Suggest.hint ~candidates:[ "text"; "md"; "json" ] other)));
    if List.exists (fun r -> r.Repro_harness.Report.d = None) rows || not base.ok
    then exit 1
  in
  let term =
    Term.(const run $ trace_arg $ collectors_arg $ format_arg $ gc_threads_arg)
  in
  Cmd.v
    (Cmd.info "distill"
       ~doc:
         "Replay a trace under real collectors and the ideal baseline; \
          report each collector's exact distilled cost.")
    term

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "lxr_trace"
      ~doc:"Mutator trace capture, replay, and cross-collector differential testing"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ record_cmd; replay_cmd; stat_cmd; diff_cmd; distill_cmd ]))
