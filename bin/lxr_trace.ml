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
module Tracer = Repro_engine.Tracer
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
  let run path collector verify inject rerecord =
    let trace = load_trace path in
    let factory = Cli.find_collector collector in
    let points = Cli.parse_verify verify in
    let fault = Cli.parse_inject trace.header.seed inject in
    let r =
      Repro_harness.Runner.replay ~verify:points ?inject:fault
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
      $ Cli.inject_arg $ rerecord_arg)
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
    (* Counted per ring tag (a byte), printed in tag order under each
       tag's event name. *)
    let counts = Array.make 256 0 and names = Array.make 256 "" in
    let sizes = Repro_util.Histogram.create () in
    let alloc_bytes = ref 0 in
    let large = ref 0 in
    let work_ns = ref 0.0 in
    for i = 0 to Trace_format.num_events t - 1 do
      let tag = Trace_format.tag_at t i and ev = Trace_format.event t i in
      counts.(tag) <- counts.(tag) + 1;
      names.(tag) <- Tracer.name ev;
      match ev with
      | Tracer.Alloc a ->
        Repro_util.Histogram.record sizes a.size;
        alloc_bytes := !alloc_bytes + a.size;
        if a.large then incr large
      | Tracer.Work w -> work_ns := !work_ns +. w.ns
      | _ -> ()
    done;
    Printf.printf "  events      %d total\n" (Trace_format.num_events t);
    Array.iteri
      (fun tag n -> if n > 0 then Printf.printf "    %-18s %d\n" names.(tag) n)
      counts;
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
  let run path collectors every no_verify inject inject_into =
    let trace = load_trace path in
    let names = Repro_util.Spec.items collectors in
    if List.length names < 2 then Cli.die "diff needs at least two collectors";
    (* The free-reclamation baseline is a methodological yardstick, not a
       collector under test — keep it out of lockstep comparisons. *)
    List.iter
      (fun n ->
        if not (Repro_harness.Collector_set.lockstep_ok n) then
          Cli.die
            (Printf.sprintf
               "%S is the distilled-cost baseline, not a collector under \
                test; use `lxr_trace distill' to compare against it"
               n))
      names;
    let lanes = List.map (fun n -> (n, Cli.find_collector n)) names in
    let fault = Cli.parse_inject trace.header.seed inject in
    let target =
      Cli.or_die
        (Repro_util.Spec.choose ~what:"--inject-into collector"
           (List.map (fun n -> (n, n)) names)
           (Option.value inject_into ~default:(List.hd names)))
    in
    let inject = Option.map (fun f -> (target, f)) fault in
    match
      Differ.run ~verify:(not no_verify) ~every ?inject ~trace
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
      $ Cli.inject_arg $ inject_into_arg)
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
  let run path collectors format =
    let trace = load_trace path in
    let names = Repro_util.Spec.items collectors in
    if names = [] then Cli.die "distill needs at least one collector";
    let lanes = List.map (fun n -> (n, Cli.find_collector n)) names in
    let format = Cli.parse_format format in
    let rows =
      Repro_harness.Distill.against lanes ~run:(fun factory ->
          Repro_harness.Runner.replay ~trace ~factory ())
    in
    Cli.print_format format
      ~text:(fun () ->
        Repro_harness.Report.distill_table
          ~title:
            (Printf.sprintf
               "Distilled cost on %s (%s, %d events): real replay minus the\n\
                free-reclamation baseline's replay of the same mutator work."
               path trace.header.workload
               (Trace_format.num_events trace))
          rows)
      ~md:(fun () -> Repro_harness.Report.distill_markdown rows)
      ~json:(fun () -> Repro_harness.Report.distill_json rows);
    if not (List.for_all Repro_harness.Distill.ok rows) then exit 1
  in
  let term =
    Term.(const run $ trace_arg $ collectors_arg $ Cli.format_arg)
  in
  Cmd.v
    (Cmd.info "distill"
       ~doc:
         "Replay a trace under real collectors and the ideal baseline; \
          report each collector's distilled cost against it.")
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
