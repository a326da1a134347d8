(* What lxr_sim, lxr_trace and lxr_fleet share on the command line: the
   error exit, name lookups, and the flags all of them take. Values are
   parsed through Repro_util.Spec rather than by Cmdliner converters, so
   a bad value exits 2 with a named error instead of Cmdliner's 124 and
   usage block. *)

open Cmdliner
module Spec = Repro_util.Spec

let die msg =
  Printf.eprintf "%s\n" msg;
  exit 2

let or_die = function Ok v -> v | Error msg -> die msg

(* A name lookup: the error points at the command that lists names. *)
let lookup_or_die = function
  | Ok v -> v
  | Error msg -> die (msg ^ "\n(try: lxr_sim list)")

let find_workload name =
  lookup_or_die (Repro_harness.Collector_set.find_workload name)

(* With no option this is a plain collector-table lookup; see
   Collector_set.resolve for --controller and --lxr-knob, whose errors
   are about their specs, not about names `lxr_sim list' shows. *)
let find_collector ?controller ?burn ?(knobs = []) name =
  let r = Repro_harness.Collector_set.resolve ?controller ?burn ~knobs name in
  if controller = None && knobs = [] then lookup_or_die r else or_die r

(* An optional spec-valued flag through its parser; a rejected value
   dies naming the flag. *)
let parse_opt ~flag parser = function
  | None -> None
  | Some s ->
    Some (or_die (Result.map_error (Printf.sprintf "--%s: %s" flag) (parser s)))

let parse_verify v =
  Option.value ~default:[]
    (parse_opt ~flag:"verify" Repro_verify.Verifier.points_of_string v)

let parse_inject seed =
  parse_opt ~flag:"inject" (Repro_engine.Fault.of_spec ~seed)

(* Fleet replica workers: 1-64, the most lanes a domain pool takes, or
   'auto', one fewer than the runtime's recommended domain count,
   clamped to that range. Anything that is not an integer is looked up
   as a name, so a typo gets a hint. *)
let parse_domains s =
  let what = "--domains" in
  let auto = Domain.recommended_domain_count () - 1 in
  or_die
    (match Spec.int_in ~what ~lo:min_int ~hi:max_int s with
    | Ok _ -> Spec.int_in ~what ~lo:1 ~hi:64 s
    | Error _ ->
      Spec.choose ~what:(what ^ " value") [ ("auto", min 64 (max 1 auto)) ] s)

type format = Text | Md | Json

let parse_format s =
  or_die
    (Spec.choose ~what:"--format" [ ("text", Text); ("md", Md); ("json", Json) ] s)

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

let format_arg =
  let doc = "Output format: text, md or json." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)
