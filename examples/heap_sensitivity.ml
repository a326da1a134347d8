(* Garbage collection is a time-space tradeoff (§5.1 "Heap Size
   Sensitivity", Figure 7's x-axis).

   One benchmark (xalan: high allocation rate, 41% large objects, 17%
   survival) is run across heap sizes from a tight 1.3x to a roomy 6x
   under four collectors, printing total time and time stopped. Shapes to
   look for: every collector gets faster with more memory; the concurrent
   evacuating collector suffers most in tight heaps; LXR stays flat.

   Run with: dune exec examples/heap_sensitivity.exe *)

let () =
  let w = Repro_mutator.Benchmarks.find "xalan" in
  let collectors =
    [ ("G1", Repro_collectors.G1.factory);
      ("LXR", Repro_lxr.Lxr.factory);
      ("Shenandoah", Repro_collectors.Conc_mark_evac.shenandoah);
      ("Serial", Repro_collectors.Mark_sweep.serial) ]
  in
  let factors = [ 1.3; 1.5; 2.0; 3.0; 4.0; 6.0 ] in
  Printf.printf "xalan: total time (ms) / stop-the-world (ms) by heap size\n\n";
  Printf.printf "%12s" "heap";
  List.iter (fun (n, _) -> Printf.printf " %18s" n) collectors;
  print_newline ();
  List.iter
    (fun factor ->
      Printf.printf "%11.1fx" factor;
      List.iter
        (fun (_, factory) ->
          let r =
            Repro_harness.Runner.run ~seed:17 ~workload:w ~factory
              ~heap_factor:factor ()
          in
          if r.ok then
            Printf.printf " %10.1f/%7.2f" (r.wall_ns /. 1e6) (r.stw_wall_ns /. 1e6)
          else Printf.printf " %18s" "-")
        collectors;
      print_newline ())
    factors;
  Printf.printf
    "\nTighter heaps mean more frequent collections; collectors that must\n\
     trace or copy the whole live set each cycle pay most. LXR's survival\n\
     and wastage triggers adapt the epoch length instead (§3.2).\n"
