(* lxr_fleet — the fleet serving tier from the command line.

   Subcommands:
     run      one (benchmark, collector, policy) fleet simulation
     compare  a collectors x policies grid, as text, markdown or JSON *)

open Cmdliner
module Fleet = Repro_service.Fleet
module Policy = Repro_service.Policy

let find_policy name =
  match Policy.of_string name with Ok p -> p | Error msg -> Cli.die msg

let replicas_arg =
  let doc = "Number of replica heaps behind the front-end." in
  Arg.(value & opt int 4 & info [ "k"; "replicas" ] ~docv:"N" ~doc)

let requests_arg =
  let doc = "Total fleet-level request count (default: the workload's)." in
  Arg.(value & opt (some int) None & info [ "n"; "requests" ] ~docv:"N" ~doc)

let load_arg =
  let doc =
    "Arrival-rate multiplier; 1.0 targets the workload's published \
     per-replica utilization in wall-clock terms. GC overhead at small \
     heaps makes ~0.15 the interesting serving regime."
  in
  Arg.(value & opt float 0.15 & info [ "load" ] ~docv:"X" ~doc)

let queue_limit_arg =
  let doc = "Admission bound: max requests per replica per scheduling round." in
  Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)

let quantum_arg =
  let doc =
    "Scheduling-checkpoint interval in sim nanoseconds (default: 4x the \
     wall-clock service time)."
  in
  Arg.(value & opt (some float) None & info [ "quantum" ] ~docv:"NS" ~doc)

let domains_arg =
  let doc = "Worker domains executing replicas in parallel (1-64, or 'auto')." in
  Arg.(value & opt string "1" & info [ "domains" ] ~docv:"N|auto" ~doc)

(* Resilience flags. Each spec parser range-checks its values and hangs
   a did-you-mean hint off unknown keys, so a typo dies with a
   suggestion instead of silently running a different experiment. *)

let chaos_arg =
  let doc =
    "Seeded chaos schedule, e.g. \
     'crash\\@0.3,stall\\@0.5+0.1x4,flash-crowd\\@0.6+0.1x3'. Event \
     times are fractions of the run; settings: restart:DUR, warmup:N, \
     auto-restart:on|off. Enables replica auto-restart and the \
     slow-start warm-up ramp."
  in
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

let retry_arg =
  let doc =
    "Front-end client policy, e.g. 'timeout:5ms,max:3,backoff:200us' \
     or 'timeout:5ms,hedge:1ms'."
  in
  Arg.(value & opt (some string) None & info [ "retry" ] ~docv:"SPEC" ~doc)

let slo_arg =
  let doc =
    "Latency SLO and brown-out shedding, e.g. \
     'p99.9:2ms,window:64,burn-high:4,shed:0.5'."
  in
  Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"SPEC" ~doc)

let autoscale_arg =
  let doc =
    "Burn-driven replica autoscaler (requires --slo), e.g. \
     'max:8,min:2,up:4,down:0.25,patience:8,cooldown:64'."
  in
  Arg.(value & opt (some string) None & info [ "autoscale" ] ~docv:"SPEC" ~doc)

let controller_arg =
  let doc =
    "Tune each LXR replica's knobs online between RC epochs: 'hill' or \
     'pid', optionally with :key=value,... options. With obj=burn the \
     objective follows the fleet's --slo burn rate. Requires -c lxr. \
     Example: --controller=pid:obj=burn,target=1."
  in
  Arg.(value & opt (some string) None & info [ "controller" ] ~docv:"SPEC" ~doc)

let make_config ?policy ?on_burn ~bench ~factory ~replicas ~factor ~requests
    ~load ~queue_limit ~quantum ~domains ~seed ~verify ~chaos ~retry ~slo
    ~autoscale () =
  let w = Cli.find_workload bench in
  let chaos = Cli.parse_opt ~flag:"chaos" Repro_service.Chaos.of_spec chaos in
  let retry =
    match Cli.parse_opt ~flag:"retry" Policy.Retry.of_spec retry with
    | Some r -> r
    | None -> Policy.Retry.none
  in
  let slo = Cli.parse_opt ~flag:"slo" Repro_service.Slo.of_spec slo in
  let autoscale =
    Cli.parse_opt ~flag:"autoscale" Repro_service.Slo.Autoscale.of_spec
      autoscale
  in
  (if autoscale <> None && slo = None then
     Cli.die "--autoscale needs --slo (the controller follows the burn rate)");
  Fleet.config ?policy ?on_burn ~replicas ~heap_factor:factor ?requests ~load
    ~queue_limit ?quantum_ns:quantum ~domains:(Cli.parse_domains domains)
    ~seed ~verify:(Cli.parse_verify verify) ?chaos ~retry ?slo ?autoscale
    ~workload:w ~factory ()

let run_cmd =
  let policy_arg =
    let doc =
      Printf.sprintf "Load-balancing policy: %s."
        (String.concat ", " Policy.names)
    in
    Arg.(value & opt string "gc-aware" & info [ "p"; "policy" ] ~docv:"NAME" ~doc)
  in
  let run bench collector policy replicas factor requests load queue_limit
      quantum domains seed verify chaos retry slo autoscale controller =
    (* A controller's burn objective reads the fleet's SLO burn through
       this cell: Fleet publishes it at window boundaries (replicas
       quiescent) and replicas read it during rounds, frozen per round,
       so runs stay bit-identical across --domains. *)
    let burn = Atomic.make 0.0 in
    let factory =
      Cli.find_collector ?controller ~burn:(fun () -> Atomic.get burn)
        collector
    in
    let on_burn = Option.map (fun _ b -> Atomic.set burn b) controller in
    let cfg =
      make_config ~policy:(find_policy policy) ?on_burn ~bench ~factory
        ~replicas ~factor ~requests ~load ~queue_limit ~quantum ~domains ~seed
        ~verify ~chaos ~retry ~slo ~autoscale ()
    in
    let r = Fleet.run cfg in
    Repro_harness.Report.print_fleet r;
    if not r.ok then exit 1
  in
  let term =
    Term.(
      const run $ Cli.bench_arg $ Cli.collector_arg $ policy_arg
      $ replicas_arg $ Cli.heap_factor_arg 1.3 $ requests_arg $ load_arg
      $ queue_limit_arg $ quantum_arg $ domains_arg $ Cli.seed_arg
      $ Cli.verify_arg $ chaos_arg $ retry_arg $ slo_arg $ autoscale_arg
      $ controller_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one fleet simulation.") term

let compare_cmd =
  let collectors_arg =
    let doc = "Comma-separated collectors to compare." in
    Arg.(
      value
      & opt string "g1,lxr,shenandoah,zgc"
      & info [ "c"; "collectors" ] ~docv:"NAMES" ~doc)
  in
  let policies_arg =
    let doc = "Comma-separated policies to compare (default: all)." in
    Arg.(
      value
      & opt string (String.concat "," Policy.names)
      & info [ "p"; "policies" ] ~docv:"NAMES" ~doc)
  in
  let run bench collectors policies format replicas factor requests load
      queue_limit quantum domains seed verify chaos retry slo autoscale =
    let collectors =
      List.map (fun n -> Cli.find_collector n) (Repro_util.Spec.items collectors)
    in
    let policies = List.map find_policy (Repro_util.Spec.items policies) in
    if collectors = [] then Cli.die "compare needs at least one collector";
    if policies = [] then Cli.die "compare needs at least one policy";
    let format = Cli.parse_format format in
    let results =
      List.concat_map
        (fun factory ->
          List.map
            (fun policy ->
              Fleet.run
                (make_config ~policy ~bench ~factory ~replicas ~factor
                   ~requests ~load ~queue_limit ~quantum ~domains ~seed ~verify
                   ~chaos ~retry ~slo ~autoscale ()))
            policies)
        collectors
    in
    Cli.print_format format
      ~text:(fun () ->
        Repro_harness.Report.fleet_table
          ~title:
            (Printf.sprintf
               "Fleet compare: %s, %d replicas at %.1fx heap, load %.2f \
                (latency in us)"
               bench replicas factor load)
          results)
      ~md:(fun () -> Repro_harness.Report.fleet_markdown results)
      ~json:(fun () -> Repro_harness.Report.fleet_json results)
  in
  let term =
    Term.(
      const run $ Cli.bench_arg $ collectors_arg $ policies_arg
      $ Cli.format_arg $ replicas_arg $ Cli.heap_factor_arg 1.3
      $ requests_arg $ load_arg $ queue_limit_arg $ quantum_arg $ domains_arg
      $ Cli.seed_arg $ Cli.verify_arg $ chaos_arg $ retry_arg $ slo_arg
      $ autoscale_arg)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare collectors x policies on one fleet.")
    term

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "lxr_fleet"
      ~doc:"Multi-replica request serving with GC-aware load balancing"
  in
  exit (Cmd.eval (Cmd.group ~default info [ run_cmd; compare_cmd ]))
