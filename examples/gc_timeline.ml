(* Figure 2, from a live run: LXR's timeline of brief stop-the-world RC
   pauses and concurrent activity (lazy decrements + SATB tracing).

   A slice of a lusearch run is rendered as a text timeline: one row of
   mutator execution, one row of stop-the-world pauses (= RC epochs, with
   # marking the pauses that also evacuate after an SATB completes), and
   one row of concurrent collector activity between them.

   Run with: dune exec examples/gc_timeline.exe *)

open Repro_engine

let width = 110

let () =
  (* Keep the metered request model: its think-time is where the
     concurrent LXR thread catches up, letting SATB cycles complete. *)
  let w = Repro_mutator.Benchmarks.find "lusearch" in
  let heap =
    Repro_heap.Heap.create
      (Repro_heap.Heap_config.make
         ~heap_bytes:(int_of_float (2.0 *. Float.of_int w.min_heap_bytes))
         ())
  in
  let sim = Sim.create Cost_model.default in
  (* (start_ns, end_ns, label) per pause and per concurrent slice, newest
     first: pauses from the pause-end hook, slices from a [conc_run]
     wrapper that spans the wall time the consumed CPU occupied on the
     concurrent threads, ending now. *)
  let events = ref [] in
  let record s e label = events := (s, e, label) :: !events in
  Sim.set_on_pause_end sim (fun label ->
      let s, e = Sim.last_pause sim in
      record s e label);
  let factory sim heap ~roots =
    let c = Repro_lxr.Lxr.factory sim heap ~roots in
    let conc_run ~budget_ns =
      let threads = c.Collector.conc_active () in
      let consumed = c.Collector.conc_run ~budget_ns in
      if consumed > 0.0 then begin
        let now = Sim.now sim in
        record (now -. (consumed /. Float.of_int threads)) now "concurrent"
      end;
      consumed
    in
    { c with Collector.conc_run }
  in
  let api = Api.create sim heap factory in
  let prng = Repro_util.Prng.create 42 in
  ignore (Repro_mutator.Mut_engine.run api prng w ~scale:0.35);
  let events = List.rev !events in
  (match events with
  | [] -> print_endline "no GC events recorded"
  | (first_start, _, _) :: _ ->
    let t1 = Sim.now sim in
    let span = t1 -. first_start in
    let col t =
      let c =
        int_of_float ((t -. first_start) /. span *. Float.of_int (width - 1))
      in
      max 0 (min (width - 1) c)
    in
    let stw = Bytes.make width ' ' in
    let conc = Bytes.make width ' ' in
    List.iter
      (fun (s, e, label) ->
        let glyph, row =
          match label with
          | "rc" -> ('|', stw)
          | "rc+evac" -> ('#', stw)
          | "concurrent" -> ('~', conc)
          | _ -> ('|', stw)
        in
        for c = col s to col e do
          Bytes.set row c glyph
        done)
      events;
    Printf.printf
      "LXR timeline, lusearch at 2x heap (%.1f ms of virtual time)\n\n" (span /. 1e6);
    Printf.printf "mutators    %s\n" (String.make width '=');
    Printf.printf "STW pauses  %s\n" (Bytes.to_string stw);
    Printf.printf "concurrent  %s\n\n" (Bytes.to_string conc);
    Printf.printf
      "  = mutator running   | RC pause   # RC pause with mature evacuation\n\
      \  ~ concurrent LXR thread (lazy decrements, old sweeping, SATB trace)\n\n";
    let pauses = List.filter (fun (_, _, l) -> l <> "concurrent") events in
    let satb = List.filter (fun (_, _, l) -> l = "rc+evac") pauses in
    Printf.printf
      "%d RC epochs, %d of which reclaimed an SATB cycle's garbage and\n\
       evacuated its fragmented blocks — the paper's Figure 2 in motion.\n"
      (List.length pauses) (List.length satb))
