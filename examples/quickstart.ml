(* Quickstart: drive the LXR collector by hand.

   Builds a 2 MB Immix heap, allocates objects through the engine API
   (every operation flows through LXR's write barrier and triggers), and
   watches reference counting, young sweeping, and the backup SATB trace
   reclaim memory — a live rendition of the paper's Figure 1.

   Run with: dune exec examples/quickstart.exe *)

open Repro_heap
open Repro_engine
module Verifier = Repro_verify.Verifier

let () =
  (* 1. A heap of 64 Immix blocks (32 KB blocks, 256 B lines, 2-bit RC). *)
  let cfg = Heap_config.make ~heap_bytes:(2 * 1024 * 1024) () in
  let heap = Heap.create cfg in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap Repro_lxr.Lxr.factory in
  (* Cross-check the heap's redundant metadata at every pause boundary
     and at the end of the run. *)
  let verifier =
    Verifier.attach
      ~points:[ Verifier.Pre_pause; Verifier.Post_pause; Verifier.End_of_run ]
      api
  in
  Printf.printf "heap: %d blocks of %d KB, %d B lines, RC sticks at %d\n\n"
    (Heap_config.blocks cfg) (cfg.block_bytes / 1024) cfg.line_bytes
    (Heap_config.stuck_count cfg);

  (* 2. Build a small object graph: a rooted table pointing at children.
     [Api.alloc_fast] returns the new object's handle; were the heap
     exhausted, it would return the null handle and [Api.last_oom] would
     say why. *)
  let table = Api.alloc_fast api ~size:128 ~nfields:8 in
  Api.set_root api 0 table.id;
  for i = 0 to 7 do
    let child = Api.alloc_fast api ~size:64 ~nfields:2 in
    Api.write api table i child.id
  done;
  Printf.printf "after setup: %d live objects, %d KB live\n"
    (Obj_model.Registry.count heap.registry)
    (Heap.live_bytes heap / 1024);

  (* 3. Make garbage: allocate a heap's worth of unreferenced objects,
     overwrite half the table (dropping children), and build one
     unreachable cycle — the case reference counting alone cannot
     collect. *)
  let a = Api.alloc_fast api ~size:64 ~nfields:2 in
  let b = Api.alloc_fast api ~size:64 ~nfields:2 in
  Api.write api a 0 b.id;
  Api.write api b 0 a.id;
  Api.write api table 0 a.id;  (* reachable for now *)
  for i = 4 to 7 do
    Api.write api table i Obj_model.null
  done;
  Api.write api table 0 Obj_model.null;  (* cycle is now garbage *)
  for _ = 1 to 40_000 do
    ignore (Api.alloc_fast api ~size:64 ~nfields:2)
  done;
  Api.finish api;

  (* 4. What happened, in the collector's own words. *)
  let stats = (Api.collector api).Collector.stats () in
  let stat k =
    match List.assoc_opt k stats with
    | Some v -> v
    | None ->
      Printf.eprintf "quickstart: LXR reports no %s counter\n" k;
      exit 1
  in
  Printf.printf "after churning ~2.5 MB of garbage through the heap:\n";
  Printf.printf
    "  live objects        %d (survivors + the final epoch's young objects,\n\
     \                       which await their first RC pause)\n"
    (Obj_model.Registry.count heap.registry);
  Printf.printf "  RC pauses           %.0f (%.2f ms median)\n" (stat "rc_pauses")
    (match Repro_util.Histogram.percentile_opt (Sim.pauses sim) 50.0 with
    | Some v -> Float.of_int v /. 1e6
    | None -> 0.0);
  Printf.printf "  young reclaimed     %.0f KB without touching a dead object\n"
    (stat "young_reclaimed" /. 1024.0);
  Printf.printf "  mature RC reclaimed %.0f KB promptly via decrements\n"
    (stat "old_reclaimed" /. 1024.0);
  Printf.printf "  SATB reclaimed      %.0f KB of cycles / stuck counts\n"
    (stat "satb_reclaimed" /. 1024.0);
  Printf.printf "  young evacuated     %.0f KB (defragmentation copies)\n"
    (stat "young_evacuated" /. 1024.0);
  Printf.printf "  cycle collected?    %b\n"
    (not (Obj_model.Registry.mem heap.registry a.id));
  Printf.printf "\ntotal virtual time: %.2f ms (%.2f ms stopped, %.1f%%)\n"
    (Sim.now sim /. 1e6)
    (Sim.stw_wall sim /. 1e6)
    (100.0 *. Sim.stw_wall sim /. Sim.now sim);

  (* 5. The verifier's verdict: every safepoint check cross-validated the
     registry, RC table, block states, free lists and reachability. *)
  Verifier.finish verifier;
  Printf.printf "\nintegrity: %d verifier checks, %d violations\n"
    (Verifier.checks_run verifier)
    (Verifier.total_violations verifier);
  if not (Verifier.ok verifier) then begin
    print_string (Verifier.report verifier);
    exit 1
  end
