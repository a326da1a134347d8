open Repro_engine
open Repro_heap

let null = Obj_model.null

type divergence = {
  event_index : int;
  checkpoint : int;
  kind : string;
  subject : string;
  detail : string;
}

type report = {
  trace_events : int;
  collectors : string list;
  skipped : (string * string) list;
  checkpoints : int;
  divergences : divergence list;
  total_divergences : int;
  oracle_checks : int;
}

let divergence_to_string d =
  Printf.sprintf "event %d (checkpoint %d) [%s] %s: %s" d.event_index
    d.checkpoint d.kind d.subject d.detail

let report_to_string r =
  let head =
    Printf.sprintf
      "diff: %d collectors (%s), %d events, %d checkpoints, %d oracle checks: %s"
      (List.length r.collectors)
      (String.concat ", " r.collectors)
      r.trace_events r.checkpoints r.oracle_checks
      (if r.total_divergences = 0 then "no divergence"
       else Printf.sprintf "%d divergences" r.total_divergences)
  in
  let skips =
    List.map
      (fun (label, reason) ->
        Printf.sprintf "  skipped %s: %s" label reason)
      r.skipped
  in
  String.concat "\n"
    ((head :: skips)
    @ List.map (fun d -> "  " ^ divergence_to_string d) r.divergences)

type lane = { label : string; api : Api.t; rep : Replay.t }

(* The live set in *recorded* id space: reachability over the replay
   registry (mutator-determined, so it must agree across collectors),
   translated back through the replayer's id map. Ids the trace never
   allocated cannot be reachable — every object enters the heap through
   a replayed [Alloc] — so translation is total. *)
let live_set lane =
  let heap = Api.heap lane.api in
  let roots =
    Array.to_list (Api.roots lane.api) |> List.filter (fun id -> id <> null)
  in
  let reach = Obj_model.Registry.reachable_from heap.Heap.registry roots in
  let set = Hashtbl.create 256 in
  Mark_bitset.iter_marked reach (fun id ->
      match Replay.recorded_id lane.rep ~replay_id:id with
      | Some rid -> Hashtbl.replace set rid ()
      | None -> Hashtbl.replace set (-id) ());
  set

(* Ids present in [a] but not [b], ascending. *)
let missing_from a b =
  Hashtbl.fold (fun id () acc -> if Hashtbl.mem b id then acc else id :: acc) a []
  |> List.sort compare

let run ?(verify = false) ?(every = 4096) ?(max_divergences = 8) ?inject
    ?(gc_threads = 1) ~trace ~collectors () =
  let header = trace.Trace_format.header in
  let cfg = Trace_format.heap_config header in
  let is_lane target label =
    String.lowercase_ascii target = String.lowercase_ascii label
  in
  (match inject with
  | Some (target, _)
    when not (List.exists (fun (label, _) -> is_lane target label) collectors)
    ->
    invalid_arg
      (Printf.sprintf "Differ.run: inject target %S names no lane" target)
  | Some _ | None -> ());
  (* A collector may refuse the trace's heap geometry outright (ZGC has
     a minimum heap). That is a property of the collector, not a
     divergence: drop the lane, note why, and diff the rest. *)
  let skipped = ref [] in
  let lanes =
    List.filter_map
      (fun (label, factory) ->
        let heap = Heap.create cfg in
        let sim = Sim.create Cost_model.default in
        Sim.set_pool sim (Repro_par.Par.Pool.get ~threads:gc_threads);
        (match inject with
        | Some (target, fault) when is_lane target label ->
          Sim.set_faults sim fault
        | Some _ | None -> ());
        match Api.create sim heap factory with
        | api -> Some { label; api; rep = Replay.create api trace }
        | exception Collector.Unsupported msg ->
          skipped := (label, msg) :: !skipped;
          None)
      collectors
  in
  let skipped = List.rev !skipped in
  if lanes = [] then
    raise
      (Collector.Unsupported
         (Printf.sprintf "every collector refused this trace (%s)"
            (String.concat "; "
               (List.map (fun (l, m) -> l ^ ": " ^ m) skipped))));
  let names =
    List.map (fun l -> (Api.collector l.api).Collector.name) lanes
  in
  let divergences = ref [] in
  let total = ref 0 in
  let checkpoints = ref 0 in
  let oracle_checks = ref 0 in
  let stop = ref false in
  let record_divergence d =
    incr total;
    if List.length !divergences < max_divergences then
      divergences := d :: !divergences;
    if !total >= max_divergences then stop := true
  in
  let n = Trace_format.num_events trace in
  let base = List.hd lanes in
  let check_lanes ~event_index =
    incr checkpoints;
    let cp = !checkpoints in
    (* Live-set agreement, every lane against the first. *)
    let base_set = live_set base in
    List.iter
      (fun lane ->
        if lane != base then begin
          let set = live_set lane in
          let only_base = missing_from base_set set in
          let only_lane = missing_from set base_set in
          (match (only_base, only_lane) with
          | [], [] -> ()
          | id :: _, _ ->
            record_divergence
              { event_index; checkpoint = cp; kind = "live-set";
                subject = Printf.sprintf "object %d" id;
                detail =
                  Printf.sprintf
                    "reachable under %s but not under %s (%d object(s) differ)"
                    base.label lane.label
                    (List.length only_base + List.length only_lane) }
          | [], id :: _ ->
            record_divergence
              { event_index; checkpoint = cp; kind = "live-set";
                subject = Printf.sprintf "object %d" id;
                detail =
                  Printf.sprintf
                    "reachable under %s but not under %s (%d object(s) differ)"
                    lane.label base.label (List.length only_lane) });
          let sb = (Replay.output base.rep).survived_bytes in
          let sl = (Replay.output lane.rep).survived_bytes in
          if sb <> sl then
            record_divergence
              { event_index; checkpoint = cp; kind = "survived-bytes";
                subject = "survived-byte counter";
                detail =
                  Printf.sprintf "%s counted %d, %s counted %d" base.label sb
                    lane.label sl }
        end)
      lanes;
    (* Heap-integrity oracle per lane. *)
    if verify then
      List.iter
        (fun lane ->
          incr oracle_checks;
          let viols =
            Repro_verify.Verifier.check_heap ~roots:(Api.roots lane.api)
              ~introspect:(Api.collector lane.api).Collector.introspect
              (Api.heap lane.api)
          in
          match viols with
          | [] -> ()
          | v :: _ ->
            record_divergence
              { event_index; checkpoint = cp; kind = "oracle";
                subject = Printf.sprintf "%s: %s" lane.label v.subject;
                detail =
                  Printf.sprintf "%s (%d violation(s) in total)"
                    (Repro_verify.Verifier.violation_to_string v)
                    (List.length viols) })
        lanes
  in
  let k = ref 0 in
  while (not !stop) && !k < n do
    List.iter (fun lane -> ignore (Replay.step lane.rep)) lanes;
    let event_index = !k in
    incr k;
    (* A lane that halts (ladder exhausted where the recording
       succeeded) cannot stay in lockstep; report and stop. *)
    let halted = List.filter (fun l -> Replay.halted l.rep) lanes in
    if halted <> [] then begin
      if List.length halted < List.length lanes then
        List.iter
          (fun lane ->
            record_divergence
              { event_index; checkpoint = !checkpoints; kind = "oom";
                subject = "allocation";
                detail =
                  Printf.sprintf
                    "%s exhausted the degradation ladder here; others did not"
                    lane.label })
          halted;
      stop := true
    end
    else begin
      let is_checkpoint =
        let tag = Trace_format.tag_at trace event_index in
        tag = Trace_format.tag_safepoint
        || tag = Trace_format.tag_finish
        || (every > 0 && !k mod every = 0)
      in
      if is_checkpoint then check_lanes ~event_index
    end
  done;
  { trace_events = n;
    collectors = names;
    skipped;
    checkpoints = !checkpoints;
    divergences = List.rev !divergences;
    total_divergences = !total;
    oracle_checks = !oracle_checks }
