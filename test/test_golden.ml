(* Pins the simulated behaviour of every registered collector.

   golden/collectors.digest holds one line per collector name x
   benchmark x heap factor: "<collector> <benchmark> <factor> <value>",
   where the value is an MD5 of the run metrics (the ledger's run-digest
   field set) at scale 0.08 and seed 7 with the end-of-run verifier on,
   or the run's error message when the collector refuses the heap or the
   run fails. A refactor that claims to preserve behaviour must leave
   every line alone. On a mismatch the test prints the expected and
   actual lines; after a deliberate behaviour change, paste the actual
   lines into the file. *)

open Repro_harness

let golden_path = Filename.concat "golden" "collectors.digest"
let benchmarks = [ "avrora"; "fragger"; "h2" ]
let factors = [ 1.1; 1.3 ]

let digest (r : Runner.result) =
  let b = Buffer.create 512 in
  let floats = List.iter (Printf.bprintf b "%h;") in
  let ints = List.iter (Printf.bprintf b "%d;") in
  let alist = List.iter (fun (k, v) -> Printf.bprintf b "%s=%h;" k v) in
  let hist h =
    ints [ Repro_util.Histogram.count h; Repro_util.Histogram.total h ];
    List.iter
      (fun p ->
        ints [ Option.value ~default:0 (Repro_util.Histogram.percentile_opt h p) ])
      [ 50.; 90.; 99.; 99.9; 100. ]
  in
  floats
    [ r.wall_ns; r.mutator_cpu_ns; r.gc_cpu_ns; r.stw_wall_ns; r.stw_cpu_ns;
      r.alloc_stall_ns; r.barrier_cpu_ns ];
  ints
    [ r.pause_count; r.requests; r.alloc_bytes; r.alloc_count; r.survived_bytes;
      r.large_bytes ];
  hist r.pauses;
  Option.iter hist r.latency;
  alist r.collector_stats;
  alist r.ladder;
  Digest.to_hex (Digest.string (Buffer.contents b))

let cell name bench factor =
  let get = function Ok x -> x | Error e -> Alcotest.fail e in
  let r =
    Runner.run ~seed:7 ~scale:0.08 ~verify:[ Repro_verify.Verifier.End_of_run ]
      ~workload:(get (Collector_set.find_workload bench))
      ~factory:(get (Collector_set.find name)) ~heap_factor:factor ()
  in
  let value =
    match r.error with
    | None -> digest r
    | Some e -> "error: " ^ e
  in
  Printf.sprintf "%s %s %.1f %s" name bench factor value

(* The key of a line is everything before its value. *)
let key line =
  match String.split_on_char ' ' line with
  | name :: bench :: factor :: _ -> String.concat " " [ name; bench; factor ]
  | _ -> line

let test_collectors_golden () =
  let expected =
    In_channel.with_open_text golden_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let actual =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun bench -> List.map (cell name bench) factors)
          benchmarks)
      Collector_set.names
  in
  let find lines k = List.find_opt (fun l -> key l = k) lines in
  let keys = List.sort_uniq compare (List.map key (expected @ actual)) in
  let diffs =
    List.filter_map
      (fun k ->
        let e = find expected k and a = find actual k in
        if e = a then None
        else
          let show = Option.value ~default:(k ^ " (missing)") in
          Some (Printf.sprintf "  expected: %s\n  actual:   %s" (show e) (show a)))
      keys
  in
  if diffs <> [] then
    Alcotest.failf "%s: %d of %d cells differ\n%s" golden_path
      (List.length diffs) (List.length keys) (String.concat "\n" diffs)

let suite =
  [ ( "collectors:golden",
      [ Alcotest.test_case "every registered collector" `Slow
          test_collectors_golden ] ) ]
