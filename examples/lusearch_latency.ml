(* The paper's headline result in miniature (Table 1).

   lusearch — a search engine with a ~10 GB/s allocation rate and a tiny
   heap — is run at a tight 1.3x heap under G1, Shenandoah, LXR, and
   Shenandoah again with 10x the memory. Watch two things: Shenandoah's
   short pauses do NOT produce low request latency at 1.3x (allocation
   stalls wreck the tail), and LXR's slightly longer pauses do.

   Run with: dune exec examples/lusearch_latency.exe *)

let () =
  let w = Repro_mutator.Benchmarks.find "lusearch" in
  let configs =
    [ ("G1        @ 1.3x", Repro_collectors.G1.factory, 1.3);
      ("Shenandoah@ 1.3x", Repro_collectors.Conc_mark_evac.shenandoah, 1.3);
      ("LXR       @ 1.3x", Repro_lxr.Lxr.factory, 1.3);
      ("Shenandoah@ 10x ", Repro_collectors.Conc_mark_evac.shenandoah, 10.0) ]
  in
  Printf.printf
    "lusearch, %d requests, metered arrivals (%s)\n\
     %-18s %8s %9s | %8s %8s %8s | %8s %8s\n%!"
    (match w.request with Some r -> r.count | None -> 0)
    "latency percentiles in virtual ms"
    "collector" "kQPS" "time(ms)" "lat p50" "p99" "p99.99" "pause50" "pause99";
  List.iter
    (fun (name, factory, factor) ->
      let r =
        Repro_harness.Runner.run ~seed:42 ~workload:w ~factory ~heap_factor:factor ()
      in
      if not r.ok then
        Printf.printf "%-18s failed: %s\n%!" name (Option.value r.error ~default:"?")
      else begin
        let lat p =
          match r.latency with
          | Some h -> (
            match Repro_util.Histogram.percentile_opt h p with
            | Some v -> Float.of_int v /. 1e6
            | None -> 0.0)
          | None -> 0.0
        in
        let pause p =
          match Repro_util.Histogram.percentile_opt r.pauses p with
          | Some v -> Float.of_int v /. 1e6
          | None -> 0.0
        in
        Printf.printf "%-18s %8.0f %9.1f | %8.3f %8.3f %8.3f | %8.3f %8.3f\n%!"
          name
          (Repro_harness.Runner.qps r /. 1e3)
          (r.wall_ns /. 1e6) (lat 50.0) (lat 99.0) (lat 99.99) (pause 50.0)
          (pause 99.0)
      end)
    configs;
  Printf.printf
    "\nThe paper's shape (Table 1): Shenandoah's tiny pauses coexist with a\n\
     collapsed tail at 1.3x; given 10x memory it recovers; LXR delivers the\n\
     best tail with moderate pauses and no extra memory.\n"
