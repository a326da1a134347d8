(* What lxr_sim, lxr_trace and lxr_fleet share on the command line: the
   error exit, name lookups, and the flags all of them take. Values are
   parsed by hand rather than by Cmdliner converters, so a bad value
   exits 2 with a named error instead of Cmdliner's 124 and usage
   block. *)

open Cmdliner
module Suggest = Repro_util.Suggest

let die msg =
  Printf.eprintf "%s\n" msg;
  exit 2

let lookup_or_die = function
  | Ok v -> v
  | Error msg -> die (msg ^ "\n(try: lxr_sim list)")

let find_workload name =
  lookup_or_die (Repro_harness.Collector_set.find_workload name)

(* With no option this is a plain registry lookup; see
   Collector_set.resolve for --controller and --lxr-knob. *)
let find_collector ?controller ?burn ?knobs name =
  lookup_or_die
    (Repro_harness.Collector_set.resolve ?controller ?burn ?knobs name)

(* "a, b,,c" -> ["a"; "b"; "c"] *)
let split_list s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* An optional spec-valued flag through its parser; a rejected value
   dies naming the flag. *)
let parse_opt ~flag parser = function
  | None -> None
  | Some s -> (
    match parser s with
    | Ok v -> Some v
    | Error msg -> die (Printf.sprintf "--%s: %s" flag msg))

let parse_verify v =
  Option.value ~default:[]
    (parse_opt ~flag:"verify" Repro_verify.Verifier.points_of_string v)

let parse_inject seed =
  parse_opt ~flag:"inject" (Repro_engine.Fault.of_spec ~seed)

(* A worker count: 1-64, the most lanes a work-packet pool takes, or
   'auto', which resolves to [auto] clamped to that range. *)
let parse_count ~flag ~auto s =
  match int_of_string_opt s with
  | Some n when n >= 1 && n <= 64 -> n
  | Some n ->
    die (Printf.sprintf "--%s: %d is out of range; expected 1-64 or 'auto'" flag n)
  | None ->
    if String.lowercase_ascii s = "auto" then min 64 (max 1 auto)
    else
      die
        (Printf.sprintf "unknown --%s value %S%s; expected a count (1-64) or 'auto'"
           flag s
           (Suggest.hint ~candidates:[ "auto" ] s))

(* Results are bit-identical for every --gc-threads value, so it is
   purely a host wall-clock knob; 'auto' is the runtime's recommended
   domain count. *)
let parse_gc_threads s =
  parse_count ~flag:"gc-threads" ~auto:(Domain.recommended_domain_count ()) s

(* Fleet replica workers; 'auto' is one fewer than --gc-threads'. *)
let parse_domains s =
  parse_count ~flag:"domains" ~auto:(Domain.recommended_domain_count () - 1) s

type format = Text | Md | Json

let parse_format = function
  | "text" -> Text
  | "md" -> Md
  | "json" -> Json
  | other ->
    die
      (Printf.sprintf "unknown --format %S%s; known: text, md, json" other
         (Suggest.hint ~candidates:[ "text"; "md"; "json" ] other))

let print_format format ~text ~md ~json =
  match format with
  | Text -> print_endline (text ())
  | Md -> print_string (md ())
  | Json -> print_string (json ())

(* --- Shared flags --------------------------------------------------------- *)

let bench_arg =
  let doc = "Benchmark name (see `lxr_sim list')." in
  Arg.(value & opt string "lusearch" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let collector_arg =
  let doc = "Collector name (lxr, g1, shenandoah, zgc, serial, ...)." in
  Arg.(value & opt string "lxr" & info [ "c"; "collector" ] ~docv:"NAME" ~doc)

let heap_factor_arg default =
  let doc =
    "Heap size (per replica, in a fleet) as a multiple of the benchmark's \
     minimum heap."
  in
  Arg.(value & opt float default & info [ "f"; "heap-factor" ] ~docv:"X" ~doc)

let scale_arg =
  let doc = "Workload scale (allocation volume / request count)." in
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"X" ~doc)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let verify_arg =
  let doc =
    "Run the heap-integrity verifier at the given safepoints: a \
     comma-separated subset of 'pre' (before each pause), 'post' (after \
     each pause) and 'end' (end of run), or 'all'."
  in
  Arg.(value & opt (some string) None & info [ "verify" ] ~docv:"POINTS" ~doc)

let inject_arg =
  let doc =
    "Inject deterministic faults, as 'class:rate' pairs separated by \
     commas. Classes: drop-barrier, skip-dec, rc-flip, remset, \
     alloc-fail. Example: --inject=drop-barrier:1e-4."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc)

let gc_threads_arg =
  let doc =
    "Work-packet lanes for collector phases (1-64, or 'auto'); a fleet's \
     replicas share one pool with --domains. Results are bit-identical \
     for every value."
  in
  Arg.(value & opt string "1" & info [ "gc-threads" ] ~docv:"N|auto" ~doc)

let format_arg =
  let doc = "Output format: text, md or json." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)
