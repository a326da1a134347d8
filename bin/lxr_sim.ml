(* lxr_sim — command-line driver for the LXR reproduction.

   Subcommands:
     run         one (benchmark, collector, heap factor) simulation
     experiment  regenerate a paper table or figure
     list        enumerate benchmarks, collectors and experiments *)

open Cmdliner
module Experiments = Repro_harness.Experiments

let record_arg =
  let doc =
    "Record the run's mutator event stream to $(docv) (replayable with \
     `lxr_trace replay')."
  in
  Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)

let knob_arg =
  let doc =
    "Override one LXR configuration knob, as name=value (repeatable; \
     see the knob table in lib/core/lxr_config.mli). Requires -c lxr. \
     Example: --lxr-knob=wastage_threshold=0.1."
  in
  Arg.(value & opt_all string [] & info [ "lxr-knob" ] ~docv:"NAME=VALUE" ~doc)

let controller_arg =
  let doc =
    "Tune LXR's knobs online between RC epochs: 'hill' or 'pid', \
     optionally with :key=value,... options (obj, seed, window, step, \
     kp, ki, kd, target, knobs). Requires -c lxr. Example: \
     --controller=hill:seed=7,window=4."
  in
  Arg.(value & opt (some string) None & info [ "controller" ] ~docv:"SPEC" ~doc)

let run_cmd =
  let run bench collector factor scale seed verify inject record gc_threads
      knobs controller =
    let w = Cli.find_workload bench in
    let factory = Cli.find_collector ?controller ~knobs collector in
    let points = Cli.parse_verify verify in
    let fault = Cli.parse_inject seed inject in
    let gc_threads = Cli.parse_gc_threads gc_threads in
    let r =
      Repro_harness.Runner.run ~seed ~scale ~gc_threads ~verify:points
        ?inject:fault ?record_to:record ~workload:w ~factory
        ~heap_factor:factor ()
    in
    Repro_harness.Report.print_result r;
    (match fault with
    | Some f ->
      Printf.printf "  faults     ";
      List.iter
        (fun (k, v) -> Printf.printf " %s=%.0f" k v)
        (Repro_engine.Fault.counts_alist f);
      print_newline ()
    | None -> ());
    (match record with
    | Some path -> Printf.printf "  trace       recorded to %s\n" path
    | None -> ());
    if not r.ok then exit 1
  in
  let term =
    Term.(
      const run $ Cli.bench_arg $ Cli.collector_arg $ Cli.heap_factor_arg 2.0
      $ Cli.scale_arg $ Cli.seed_arg $ Cli.verify_arg $ Cli.inject_arg
      $ record_arg $ Cli.gc_threads_arg $ knob_arg $ controller_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark under one collector.") term

let experiment_cmd =
  let names = String.concat ", " Experiments.names in
  let exp_arg =
    let doc = Printf.sprintf "Experiment to regenerate: %s, or 'all'." names in
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let scale_arg =
    let doc =
      "Workload scale (default: the experiment's own, 0.3 to 1.0)."
    in
    Arg.(value & opt (some float) None & info [ "s"; "scale" ] ~docv:"X" ~doc)
  in
  let iterations_arg =
    let doc =
      "Seeded repetitions feeding confidence intervals (default: the \
       experiment's own, 1 or 3)."
    in
    Arg.(value & opt (some int) None & info [ "i"; "iterations" ] ~docv:"N" ~doc)
  in
  let run name scale iterations seed =
    let todo = if name = "all" then Experiments.names else [ name ] in
    List.iter
      (fun n ->
        match Experiments.by_name n with
        | Some f ->
          let d = Experiments.default_opts n in
          print_endline
            (f
               { Experiments.scale = Option.value scale ~default:d.scale;
                 iterations = Option.value iterations ~default:d.iterations;
                 seed });
          print_newline ()
        | None ->
          Cli.die
            (Printf.sprintf "unknown experiment %S%s (known: %s)" n
               (Repro_util.Suggest.hint ~candidates:Experiments.names n)
               names))
      todo
  in
  let term =
    Term.(const run $ exp_arg $ scale_arg $ iterations_arg $ Cli.seed_arg)
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate a paper table or figure.") term

let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter (Printf.printf "  %s\n") Repro_mutator.Benchmarks.names;
    print_endline "collectors:";
    List.iter (Printf.printf "  %s\n") Repro_harness.Collector_set.names;
    print_endline "experiments:";
    List.iter (Printf.printf "  %s\n") Experiments.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks, collectors, experiments.")
    Term.(const run $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "lxr_sim" ~doc:"LXR garbage collection simulator (PLDI 2022 reproduction)" in
  exit (Cmd.eval (Cmd.group ~default info [ run_cmd; experiment_cmd; list_cmd ]))
