(* Robustness sweep: every benchmark x collector x heap factor must run
   to completion (or fail with a documented Unsupported error). Used in
   development and as a slow integration check:
     dune exec bin/sweep.exe [scale] *)
let () =
  let scale =
    if Array.length Sys.argv < 2 then 1.0
    else
      Cli.or_die
        (Repro_util.Spec.float_in ~what:"sweep: scale" ~lo:0.0
           ~hi:Float.max_float Sys.argv.(1))
  in
  let factors = [ 1.3; 2.0; 6.0 ] in
  let collectors =
    ("lxr", Repro_lxr.Lxr.factory)
    :: ("lxr-stw", Repro_lxr.Lxr.factory_stw)
    :: Repro_harness.Collector_set.non_lxr
  in
  List.iter
    (fun factor ->
      List.iter
        (fun (w : Repro_mutator.Workload.t) ->
          List.iter
            (fun (cname, factory) ->
              let t0 = Sys.time () in
              let r =
                Repro_harness.Runner.run ~scale ~workload:w ~factory
                  ~heap_factor:factor ()
              in
              let host = Sys.time () -. t0 in
              Printf.printf "%4.1fx %-10s %-10s %s wall=%9.2fms stw=%7.2fms gc=%4d host=%5.2fs%s\n%!"
                factor w.name cname
                (if r.ok then "ok  " else "FAIL")
                (r.wall_ns /. 1e6) (r.stw_wall_ns /. 1e6) r.pause_count host
                (match r.error with Some e -> " [" ^ e ^ "]" | None -> ""))
            collectors)
        Repro_mutator.Benchmarks.all)
    factors
