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

let load_trace path =
  match Trace_format.of_file path with
  | Ok t -> t
  | Error msg -> Cli.die (Printf.sprintf "%s: %s" path msg)

let trace_arg =
  let doc = "Trace file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

(* --- record ------------------------------------------------------------ *)

let record_cmd =
  let out_arg =
    let doc = "Output trace file (default: <bench>.lxrtrace)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run bench collector factor scale seed out =
    let w = Cli.find_workload bench in
    let factory = Cli.find_collector collector in
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
    | Error _ when not r.ok -> () (* refused before it started: no trace *)
    | Error msg -> Cli.die (Printf.sprintf "recorded trace failed to parse: %s" msg));
    if not r.ok then exit 1
  in
  let term =
    Term.(
      const run $ Cli.bench_arg $ Cli.collector_arg $ Cli.heap_factor_arg 2.0
      $ Cli.scale_arg $ Cli.seed_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Run a benchmark and record its mutator event stream.")
    term

(* --- replay ------------------------------------------------------------ *)

let replay_cmd =
  let rerecord_arg =
    let doc =
      "Re-record the replay's event stream to $(docv); for a faithful \
       replay the result is byte-identical to the input trace."
    in
    Arg.(value & opt (some string) None & info [ "o"; "record" ] ~docv:"FILE" ~doc)
  in
  let run path collector verify inject rerecord gc_threads =
    let trace = load_trace path in
    let factory = Cli.find_collector collector in
    let points = Cli.parse_verify verify in
    let fault = Cli.parse_inject trace.header.seed inject in
    let gc_threads = Cli.parse_gc_threads gc_threads in
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
      const run $ trace_arg $ Cli.collector_arg $ Cli.verify_arg
      $ Cli.inject_arg $ rerecord_arg $ Cli.gc_threads_arg)
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
  let inject_into_arg =
    let doc = "Collector lane --inject applies to (default: the first)." in
    Arg.(value & opt (some string) None & info [ "inject-into" ] ~docv:"NAME" ~doc)
  in
  let run path collectors every no_verify inject inject_into gc_threads =
    let trace = load_trace path in
    let names = Cli.split_list collectors in
    if List.length names < 2 then Cli.die "diff needs at least two collectors";
    (* The free-reclamation baseline is a methodological yardstick, not a
       collector under test — keep it out of lockstep comparisons. *)
    List.iter
      (fun n ->
        if not (Repro_collectors.Registry.lockstep_ok n) then
          Cli.die
            (Printf.sprintf
               "%S is the distilled-cost baseline, not a collector under \
                test; use `lxr_trace distill' to compare against it"
               n))
      names;
    let lanes = List.map (fun n -> (n, Cli.find_collector n)) names in
    let fault = Cli.parse_inject trace.header.seed inject in
    let target = Option.value inject_into ~default:(List.hd names) in
    let same n = String.lowercase_ascii n = String.lowercase_ascii target in
    if not (List.exists same names) then
      Cli.die
        (Printf.sprintf "unknown --inject-into collector %S%s; diffing: %s"
           target
           (Repro_util.Suggest.hint ~candidates:names target)
           (String.concat ", " names));
    let gc_threads = Cli.parse_gc_threads gc_threads in
    let inject = Option.map (fun f -> (target, f)) fault in
    match
      Differ.run ~verify:(not no_verify) ~every ?inject ~gc_threads ~trace
        ~collectors:lanes ()
    with
    | report ->
      print_endline (Differ.report_to_string report);
      if report.total_divergences > 0 then exit 1
    | exception Repro_engine.Collector.Unsupported msg ->
      Cli.die ("unsupported: " ^ msg)
  in
  let term =
    Term.(
      const run $ trace_arg $ collectors_arg $ every_arg $ no_verify_arg
      $ Cli.inject_arg $ inject_into_arg $ Cli.gc_threads_arg)
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
  let run path collectors format gc_threads =
    let trace = load_trace path in
    let gc_threads = Cli.parse_gc_threads gc_threads in
    let names = Cli.split_list collectors in
    if names = [] then Cli.die "distill needs at least one collector";
    let lanes = List.map (fun n -> (n, Cli.find_collector n)) names in
    let format = Cli.parse_format format in
    let ideal = Cli.find_collector "ideal" in
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
    Cli.print_format format
      ~text:(fun () ->
        Repro_harness.Report.distill_table
          ~title:
            (Printf.sprintf
               "Distilled cost on %s (%s, %d events): real replay minus the\n\
                exact free-reclamation baseline on the identical mutator work."
               path trace.header.workload
               (Trace_format.num_events trace))
          rows)
      ~md:(fun () -> Repro_harness.Report.distill_markdown rows)
      ~json:(fun () -> Repro_harness.Report.distill_json rows);
    if List.exists (fun r -> r.Repro_harness.Report.d = None) rows || not base.ok
    then exit 1
  in
  let term =
    Term.(
      const run $ trace_arg $ collectors_arg $ Cli.format_arg
      $ Cli.gc_threads_arg)
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
