(* The host-time ledger: this repository's benchmark (see README.md in
   this directory and BENCHMARK.json at the repository root).

     ledger --workload W [--seed N] [--seconds S] [--trace 0|1]
     ledger --smoke
     ledger --runs N --out FILE [--seconds S] [--workload W]
     ledger --compare BASE.json NEW.json
     ledger --workload W --seed 42 --trace 1 --write-golden

   A run measures one workload in this process. It sets the workload up
   three times (recording its input where it has one, plus one warm-up
   round), then issues rounds back to back for [--seconds], then runs a
   check pass at the other host-lane count. Every lane-run yields a
   digest of its simulated statistics, which must equal the lane's
   first digest, the live recording (replay == live), the check pass,
   and, at seed 42, the digests committed under golden/. The last line
   of standard output is one JSON object: end-to-end metrics, or with
   [--trace 1] the per-layer metrics, whose spans are also written as a
   Chrome trace to _build/ledger/<workload>.trace.json.

   Paths are relative to the repository root, which must be the current
   directory. *)

open Repro_engine
module Runner = Repro_harness.Runner
module Collector_set = Repro_harness.Collector_set
module Tf = Repro_trace.Trace_format
module Fleet = Repro_service.Fleet
module Histogram = Repro_util.Histogram

let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = Float.of_int ns /. 1e9
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let out_dir = Filename.concat "_build" "ledger"
let golden_path name = Filename.concat "ledger" (Filename.concat "golden" (name ^ ".digest"))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let lookup what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)
let collector name = lookup "collector" (Collector_set.find name)
let bench name = lookup "benchmark" (Collector_set.find_workload name)

(* --- Sim digests ---------------------------------------------------- *)

let digest f =
  let b = Buffer.create 512 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let floats b = List.iter (Printf.bprintf b "%h;")
let ints b = List.iter (Printf.bprintf b "%d;")
let alist b = List.iter (fun (k, v) -> Printf.bprintf b "%s=%h;" k v)

let hist b h =
  ints b [ Histogram.count h; Histogram.total h ];
  List.iter
    (fun p -> ints b [ Option.value ~default:0 (Histogram.percentile_opt h p) ])
    [ 50.; 90.; 99.; 99.9; 100. ]

let run_digest (r : Runner.result) =
  if not r.ok then failwith (Option.value ~default:"run not ok" r.error);
  digest (fun b ->
      floats b
        [ r.wall_ns; r.mutator_cpu_ns; r.gc_cpu_ns; r.stw_wall_ns; r.stw_cpu_ns;
          r.alloc_stall_ns; r.barrier_cpu_ns ];
      ints b
        [ r.pause_count; r.requests; r.alloc_bytes; r.alloc_count;
          r.survived_bytes; r.large_bytes ];
      hist b r.pauses;
      Option.iter (hist b) r.latency;
      alist b r.collector_stats;
      alist b r.ladder)

let fleet_digest (r : Fleet.result) =
  if not r.ok then failwith (Option.value ~default:"fleet not ok" r.error);
  digest (fun b ->
      ints b
        [ r.requests; r.completed; r.rejected; r.dropped; r.shed; r.timeouts;
          r.retries; r.hedges; r.diversions ];
      floats b [ r.wall_ns; r.wb_fast; r.wb_slow ];
      hist b r.latency;
      hist b r.queueing;
      alist b r.ladder)

(* --- Spans and collector hook timers (--trace 1) ---------------------- *)

type span = {
  cat : string;
  name : string;
  tid : int;
  t0 : int;
  t1 : int;
  args : (string * float) list;
}

(* Spans are kept for the first traced round only, so the trace file
   stays small; the hook timers aggregate over every traced round. *)
let recording = Atomic.make false
let spans = ref []
let spans_lock = Mutex.create ()

let span ?(args = []) cat name t0 t1 =
  if Atomic.get recording then begin
    let s = { cat; name; tid = (Domain.self () :> int); t0; t1; args } in
    Mutex.protect spans_lock (fun () -> spans := s :: !spans)
  end

(* Count + total host ns of one collector entry point. Atomic because
   fleet replicas call their collectors from two domains. *)
type hook = { calls : int Atomic.t; ns : int Atomic.t }

type layer = {
  pause : hook;  (** calls = pauses: polls/collections that advanced Sim.pause_count *)
  poll : hook;  (** the other polls and allocation-failure calls *)
  barrier : hook;  (** on_write *)
  alloc : hook;  (** on_alloc *)
  conc : hook;  (** conc_run *)
}

let layers =
  List.map
    (fun name ->
      let h () = { calls = Atomic.make 0; ns = Atomic.make 0 } in
      (name, { pause = h (); poll = h (); barrier = h (); alloc = h (); conc = h () }))
    [ "ideal"; "lxr"; "g1"; "conc_mark_evac"; "journal_rc" ]

let layer_of c = if c = "shenandoah" then "conc_mark_evac" else c

let charge ?(n = 1) h t0 t1 =
  ignore (Atomic.fetch_and_add h.calls n);
  ignore (Atomic.fetch_and_add h.ns (t1 - t0))

let instrument (l : layer) (factory : Collector.factory) : Collector.factory =
 fun sim heap ~roots ->
  let c = factory sim heap ~roots in
  let safepoint f =
    let p0 = Sim.pause_count sim and t0 = now () in
    f ();
    let t1 = now () and n = Sim.pause_count sim - p0 in
    if n > 0 then begin
      charge ~n l.pause t0 t1;
      span "pause" c.name t0 t1
    end
    else charge l.poll t0 t1
  in
  { c with
    poll = (fun () -> safepoint c.poll);
    collect_for_alloc = (fun p -> safepoint (fun () -> c.collect_for_alloc p));
    on_write =
      (fun o f v ->
        let t0 = now () in
        c.on_write o f v;
        charge l.barrier t0 (now ()));
    on_alloc =
      (fun o ->
        let t0 = now () in
        c.on_alloc o;
        charge l.alloc t0 (now ()));
    conc_run =
      (fun ~budget_ns ->
        let t0 = now () in
        let used = c.conc_run ~budget_ns in
        let t1 = now () in
        charge l.conc t0 t1;
        span "concurrent" c.name t0 t1;
        used) }

let snapshot (l : layer) =
  List.concat_map
    (fun (k, h) ->
      [ (k ^ "_calls", Float.of_int (Atomic.get h.calls));
        (k ^ "_us", Float.of_int (Atomic.get h.ns) /. 1e3) ])
    [ ("pause", l.pause); ("poll", l.poll); ("barrier", l.barrier);
      ("alloc", l.alloc); ("conc", l.conc) ]

let write_trace name =
  let ss = List.rev !spans in
  let base = List.fold_left (fun m s -> min m s.t0) max_int ss in
  let path = Filename.concat out_dir (name ^ ".trace.json") in
  mkdir_p out_dir;
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"cat\": %S, \"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}"
            (if i = 0 then "" else ",") s.cat s.name s.tid
            (Float.of_int (s.t0 - base) /. 1e3)
            (Float.of_int (s.t1 - s.t0) /. 1e3)
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) s.args)))
        ss;
      output_string oc "\n]}\n");
  path

(* --- Workloads --------------------------------------------------------- *)

type lane = {
  id : string;  (** digest key, e.g. "g1" or "xalan/g1" *)
  layer : string;  (** per-layer metric prefix *)
  factory : Collector.factory;
  cfg : unit -> Repro_heap.Heap_config.t;  (** geometry for the api.setup probe *)
  exec : Collector.factory -> threads:int -> string * int;
      (** one lane-run: sim digest, units of work completed *)
}

type workload = {
  name : string;
  threads : int;  (** host lanes: --gc-threads, or fleet domains *)
  alt_threads : int;  (** the check pass's lane count *)
  record : (unit -> string * string) option;
      (** records the input; returns the lane id the live run must match
          and the live run's digest *)
  decode : (unit -> int) option;  (** per-round input decode; returns events *)
  lanes : lane list;
  probes : lane list;  (** ideal baselines, run beside rounds by --trace 1 only *)
}

let replay_workload ~name ~bench:b ~scale ~heap_factor ~threads ~alt_threads ~seed =
  let w = bench b in
  let bytes = ref "" and trace = ref None in
  let current () =
    match !trace with Some t -> t | None -> failwith "no decoded trace"
  in
  let record () =
    mkdir_p out_dir;
    let path = Filename.concat out_dir (name ^ ".lxrtrace") in
    let r =
      Runner.run ~seed ~scale ~record_to:path ~workload:w
        ~factory:(collector "lxr") ~heap_factor ()
    in
    bytes := In_channel.with_open_bin path In_channel.input_all;
    Sys.remove path;
    ("lxr", run_digest r)
  in
  let decode () =
    trace := None;
    let t = lookup "decode" (Tf.of_string !bytes) in
    trace := Some t;
    Tf.num_events t
  in
  let lane c =
    { id = c;
      layer = layer_of c;
      factory = collector c;
      cfg = (fun () -> Tf.heap_config (current ()).header);
      exec =
        (fun factory ~threads ->
          let t = current () in
          (run_digest (Runner.replay ~gc_threads:threads ~trace:t ~factory ()),
           Tf.num_events t)) }
  in
  { name;
    threads;
    alt_threads;
    record = Some record;
    decode = Some decode;
    lanes = List.map lane [ "ideal"; "lxr"; "g1"; "shenandoah"; "journal_rc" ];
    probes = [] }

let heap_cfg (w : Repro_mutator.Workload.t) factor () =
  Repro_heap.Heap_config.make
    ~heap_bytes:(int_of_float (factor *. Float.of_int w.min_heap_bytes))
    ()

let sim_workload ~seed =
  let lane b c =
    let w = bench b in
    { id = b ^ "/" ^ c;
      layer = layer_of c;
      factory = collector c;
      cfg = heap_cfg w 2.0;
      exec =
        (fun factory ~threads ->
          let r =
            Runner.run ~seed ~scale:0.1 ~gc_threads:threads ~workload:w ~factory
              ~heap_factor:2.0 ()
          in
          (run_digest r, r.alloc_count)) }
  in
  let benches = [ "lusearch"; "xalan" ] in
  { name = "sim-live";
    threads = 1;
    alt_threads = 2;
    record = None;
    decode = None;
    lanes =
      List.concat_map (fun b -> List.map (lane b) [ "lxr"; "g1"; "shenandoah" ]) benches;
    probes = List.map (fun b -> lane b "ideal") benches }

let fleet_workload ~seed =
  let w = bench "lusearch" in
  let lane c =
    { id = c;
      layer = layer_of c;
      factory = collector c;
      cfg = heap_cfg w 1.3;
      exec =
        (fun factory ~threads ->
          let r =
            Fleet.run
              (Fleet.config ~replicas:4 ~heap_factor:1.3
                 ~policy:Repro_service.Policy.Gc_aware ~seed ~requests:8000
                 ~load:0.15 ~domains:threads ~gc_threads:1 ~workload:w ~factory ())
          in
          (fleet_digest r, r.completed)) }
  in
  { name = "fleet";
    threads = 2;
    alt_threads = 1;
    record = None;
    decode = None;
    lanes = [ lane "lxr" ];
    probes = [ lane "ideal" ] }

let workloads ~seed =
  [ replay_workload ~name:"replay-alloc" ~bench:"lusearch" ~scale:0.15
      ~heap_factor:2.0 ~threads:1 ~alt_threads:2 ~seed;
    replay_workload ~name:"replay-store" ~bench:"jflood" ~scale:0.05
      ~heap_factor:1.2 ~threads:2 ~alt_threads:1 ~seed;
    sim_workload ~seed;
    fleet_workload ~seed ]

(* --- Measurement ------------------------------------------------------- *)

type state = {
  w : workload;
  expect : (string, string) Hashtbl.t;  (** lane id -> digest every run must equal *)
  mutable attempted : int;
  mutable failed : int;
}

let fail st ~where id msg =
  st.failed <- st.failed + 1;
  Printf.eprintf "ledger: FAIL %s lane %s (%s): %s\n%!" st.w.name id where msg

let check st ~where id d =
  match Hashtbl.find_opt st.expect id with
  | None -> Hashtbl.replace st.expect id d
  | Some e when e = d -> ()
  | Some e -> fail st ~where id (Printf.sprintf "sim digest %s, expected %s" d e)

type sample = { lane : lane; ns : int; bytes : float; units : int }

type round = {
  round_ns : int;
  round_s : float;  (** reference seconds, see [reference_kernel] *)
  kernel_ns : int;
  round_units : int;
  round_bytes : float;  (** every domain's allocation, after a minor GC *)
  decode_ns : int;
  decode_bytes : float;
  events : int;
  samples : sample list;  (** lanes, then probes *)
  minor : int;
  major : int;
  promoted_bytes : float;
}

let word = Float.of_int (Sys.word_size / 8)

(* Gc.quick_stat sums every domain's counters as sampled at its last
   minor collection; a forced minor collection makes the sample current. *)
let gc_stat () =
  Gc.minor ();
  Gc.quick_stat ()

let allocated (s : Gc.stat) = (s.minor_words +. s.major_words -. s.promoted_words) *. word

let run_lane st ~where ~threads ~traced lane =
  st.attempted <- st.attempted + 1;
  let l = List.assoc lane.layer layers in
  let factory = if traced then instrument l lane.factory else lane.factory in
  let before = snapshot l in
  let a0 = Gc.allocated_bytes () and t0 = now () in
  let units =
    match lane.exec factory ~threads with
    | d, units ->
      check st ~where lane.id d;
      units
    | exception e ->
      fail st ~where lane.id (Printexc.to_string e);
      0
  in
  let t1 = now () in
  let bytes = Gc.allocated_bytes () -. a0 in
  if traced then
    span "lane" lane.id t0 t1
      ~args:(List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before (snapshot l));
  { lane; ns = t1 - t0; bytes; units }

(* Host-speed reference: a fixed, allocation-free kernel of random reads
   and writes over a 4 MiB table (past L2, like the simulator's
   metadata), timed before and after every round and every setup. Round
   and setup times are reported in reference seconds: measured time x
   reference_s / mean kernel time. That cancels the drift in host speed
   that co-tenants of a shared machine cause. On a 2-vCPU VM, round
   medians drifted by 10-60% between runs, while round time over kernel
   time stayed within about 3%. The table lives outside the OCaml heap
   and the kernel calls no repository code, so neither the workload's GC
   nor a change under test can move it. reference_s is the kernel's
   median time on that VM. *)
let reference_s = 0.005

let kernel_table =
  let t = Bigarray.(Array1.create int c_layout (1 lsl 19)) in
  Bigarray.Array1.fill t 0;
  t

let reference_kernel () =
  let mask = Bigarray.Array1.dim kernel_table - 1 in
  let t0 = now () in
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to 600_000 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let j = !x land mask in
    kernel_table.{j} <- kernel_table.{j} + i;
    acc := !acc + kernel_table.{j * 7 land mask}
  done;
  ignore (Sys.opaque_identity !acc);
  now () - t0

let reference_secs ~kernel_ns ns = secs ns *. reference_s /. secs kernel_ns

let run_round st ~where ~threads ~traced ~probes =
  let k0 = reference_kernel () in
  let g0 = gc_stat () in
  let t0 = now () in
  let events, decode_ns, decode_bytes =
    match st.w.decode with
    | None -> (0, 0, 0.0)
    | Some decode ->
      let a0 = Gc.allocated_bytes () in
      let events =
        try decode ()
        with e ->
          Printf.eprintf "ledger: FAIL %s decode (%s): %s\n%!" st.w.name where
            (Printexc.to_string e);
          0
      in
      let t1 = now () in
      if traced then span "decode" "Trace_format.of_string" t0 t1;
      (events, t1 - t0, Gc.allocated_bytes () -. a0)
  in
  let lanes = List.map (run_lane st ~where ~threads ~traced) st.w.lanes in
  let t1 = now () in
  let g1 = gc_stat () in
  let kernel_ns = (k0 + reference_kernel ()) / 2 in
  if traced then span "round" st.w.name t0 t1;
  let probes =
    if probes then List.map (run_lane st ~where ~threads ~traced:false) st.w.probes
    else []
  in
  { round_ns = t1 - t0;
    round_s = reference_secs ~kernel_ns (t1 - t0);
    kernel_ns;
    round_units = List.fold_left (fun acc s -> acc + s.units) 0 lanes;
    round_bytes = allocated g1 -. allocated g0;
    decode_ns;
    decode_bytes;
    events;
    samples = lanes @ probes;
    minor = g1.minor_collections - g0.minor_collections;
    major = g1.major_collections - g0.major_collections;
    promoted_bytes = (g1.promoted_words -. g0.promoted_words) *. word }

(* Standalone Heap.create + Sim.create + Api.create for one lane. *)
let setup_probe lane =
  let cfg = lane.cfg () in
  let t0 = now () in
  (* A collector that refuses the heap fails its lane-run; here it only
     costs its setup time. *)
  (try ignore (Api.create (Sim.create Cost_model.default) (Repro_heap.Heap.create cfg) lane.factory)
   with _ -> ());
  let t1 = now () in
  span "setup" lane.id t0 t1;
  t1 - t0

(* Rounds back to back until [budget] seconds have passed; at least one. *)
let timed budget f =
  let t_end = now () + int_of_float (budget *. 1e9) in
  let rec go acc =
    let acc = f (List.length acc) :: acc in
    if now () >= t_end then List.rev acc else go acc
  in
  go []

type measurement = {
  st : state;
  setup : float list;
  rounds : round list;  (** untraced *)
  traced : round list;
  setups_ns : int list;  (** api.setup probes *)
  alt : round list;
}

let read_golden name =
  let path = golden_path name in
  if not (Sys.file_exists path) then None
  else
    Some
      (In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | [ id; d ] -> Some (id, d)
             | _ -> None))

let measure ~seed ~seconds ~trace ~setup_reps ~alt_rounds ~use_golden w =
  let st = { w; expect = Hashtbl.create 16; attempted = 0; failed = 0 } in
  if use_golden && seed = 42 then begin
    match read_golden w.name with
    | Some g -> List.iter (fun (id, d) -> Hashtbl.replace st.expect id d) g
    | None -> fail st ~where:"golden" "*" ("missing " ^ golden_path w.name)
  end;
  let setup rep =
    let where = Printf.sprintf "setup %d" rep in
    let k0 = reference_kernel () in
    let t0 = now () in
    Option.iter
      (fun record ->
        st.attempted <- st.attempted + 1;
        match record () with
        | id, d -> check st ~where:(where ^ ", live recording") id d
        | exception e -> fail st ~where "record" (Printexc.to_string e))
      w.record;
    let record_ns = now () - t0 in
    let record_s = reference_secs ~kernel_ns:((k0 + reference_kernel ()) / 2) record_ns in
    record_s +. (run_round st ~where ~threads:w.threads ~traced:false ~probes:false).round_s
  in
  let setup = List.init setup_reps setup in
  let round ~traced i =
    let where = Printf.sprintf "%sround %d" (if traced then "traced " else "") i in
    run_round st ~where ~threads:w.threads ~traced ~probes:(trace && not traced)
  in
  let rounds = timed (if trace then seconds /. 2.0 else seconds) (round ~traced:false) in
  let setups_ns = ref [] in
  let traced =
    if not trace then []
    else begin
      Atomic.set recording true;
      timed (seconds /. 2.0) (fun i ->
          let r = round ~traced:true i in
          setups_ns := List.map setup_probe w.lanes @ !setups_ns;
          Atomic.set recording false;
          r)
    end
  in
  let alt =
    List.init alt_rounds (fun i ->
        run_round st
          ~where:(Printf.sprintf "check pass %d, %d host lanes" i w.alt_threads)
          ~threads:w.alt_threads ~traced:false ~probes:false)
  in
  { st; setup; rounds; traced; setups_ns = !setups_ns; alt }

(* --- Metrics ----------------------------------------------------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l -> (
          match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
          | Some kb -> Float.of_int kb /. 1024.0
          | None -> go ())
      in
      go ())

let median = Verdict.median
let over rounds f = median (List.map f rounds)
let per_unit ns units = ratio (Float.of_int ns) (Float.of_int units)

let end_to_end m =
  let times = List.map (fun r -> r.round_s) m.rounds in
  [ ("units_per_s", "1/s",
     over m.rounds (fun r -> ratio (Float.of_int r.round_units) r.round_s));
    ("round_s_p50", "s", Verdict.quantile times 0.5);
    ("round_s_p90", "s", Verdict.quantile times 0.9);
    ("host_alloc_b_per_unit", "B",
     over m.rounds (fun r -> ratio r.round_bytes (Float.of_int r.round_units)));
    ("peak_rss_mb", "MB", peak_rss_mb ());
    ("setup_s", "s", median m.setup) ]

let collectors = [ "lxr"; "g1"; "conc_mark_evac"; "journal_rc" ]

let per_layer m =
  let w = m.st.w in
  let present name = List.exists (fun l -> l.layer = name) (w.lanes @ w.probes) in
  let of_layer name r = List.filter (fun s -> s.lane.layer = name) r.samples in
  let layer_ns name r = sum (fun s -> Float.of_int s.ns) (of_layer name r) in
  let layer_units name r = sum (fun s -> Float.of_int s.units) (of_layer name r) in
  let ns_per_unit name r = ratio (layer_ns name r) (layer_units name r) in
  let if_present name f = if present name then over m.rounds f else 0.0 in
  let traced_rounds = Float.of_int (List.length m.traced) in
  let per_round x = Float.of_int x /. traced_rounds in
  let collector name =
    let l = List.assoc name layers in
    let calls (h : hook) = Atomic.get h.calls and ns (h : hook) = Atomic.get h.ns in
    [ (name ^ ".distilled_ns_per_unit", "ns",
       if_present name (fun r -> ns_per_unit name r -. ns_per_unit "ideal" r));
      (name ^ ".pause_ms", "ms", per_round (ns l.pause) /. 1e6);
      (name ^ ".pauses", "count", per_round (calls l.pause));
      (name ^ ".conc_ms", "ms", per_round (ns l.conc) /. 1e6);
      (name ^ ".barrier_calls", "count", per_round (calls l.barrier));
      (name ^ ".barrier_ns_per_call", "ns",
       ratio (Float.of_int (ns l.barrier)) (Float.of_int (calls l.barrier)));
      (name ^ ".poll_ns_per_call", "ns",
       ratio (Float.of_int (ns l.poll)) (Float.of_int (calls l.poll))) ]
  in
  let decode f = if w.decode <> None then over m.rounds f else 0.0 in
  let main = over m.rounds (fun r -> r.round_s) in
  let alt = median (List.map (fun r -> r.round_s) m.alt) in
  [ ("trace_format.decode_ns_per_event", "ns",
     decode (fun r -> per_unit r.decode_ns r.events));
    ("trace_format.decode_alloc_b_per_event", "B",
     decode (fun r -> ratio r.decode_bytes (Float.of_int r.events)));
    ("trace_format.decode_share", "ratio",
     decode (fun r -> ratio (Float.of_int r.decode_ns) (Float.of_int r.round_ns)));
    ("frontend.ns_per_unit", "ns", over m.rounds (ns_per_unit "ideal"));
    ("frontend.alloc_b_per_unit", "B",
     over m.rounds (fun r ->
         ratio (sum (fun s -> s.bytes) (of_layer "ideal" r)) (layer_units "ideal" r)));
    ("frontend.share_of_lxr", "ratio",
     over m.rounds (fun r -> ratio (layer_ns "ideal" r) (layer_ns "lxr" r)));
    ("api.setup_us", "us", median (List.map (fun ns -> Float.of_int ns /. 1e3) m.setups_ns));
    ("par.two_lane_speedup", "ratio", if w.threads = 1 then main /. alt else alt /. main);
    ("ocaml_gc.minor_per_round", "count", over m.rounds (fun r -> Float.of_int r.minor));
    ("ocaml_gc.major_per_round", "count", over m.rounds (fun r -> Float.of_int r.major));
    ("ocaml_gc.promoted_b_per_unit", "B",
     over m.rounds (fun r -> ratio r.promoted_bytes (Float.of_int r.round_units)));
    ("bench.trace_overhead", "ratio",
     over m.traced (fun r -> r.round_s) /. main) ]
  @ List.concat_map collector collectors

let json_line ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (k, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u)
          metrics))

(* --- Modes ------------------------------------------------------------- *)

let find_workload ~seed name =
  match List.find_opt (fun w -> w.name = name) (workloads ~seed) with
  | Some w -> w
  | None ->
    Printf.eprintf "ledger: unknown workload %S; known: %s\n" name
      (String.concat ", " (List.map (fun w -> w.name) (workloads ~seed)));
    exit 2

let write_golden st =
  let lines =
    Hashtbl.fold (fun id d acc -> Printf.sprintf "%s %s" id d :: acc) st.expect []
  in
  let path = golden_path st.w.name in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      List.iter (Printf.fprintf oc "%s\n") (List.sort compare lines));
  Printf.eprintf "ledger: wrote %s\n%!" path

let run_one ~name ~seed ~seconds ~trace ~golden =
  let w = find_workload ~seed name in
  let m =
    measure ~seed ~seconds ~trace ~setup_reps:3
      ~alt_rounds:(if trace then 3 else 1)
      ~use_golden:(not golden) w
  in
  let metrics = if trace then per_layer m else end_to_end m in
  Printf.printf
    "ledger %s: seed %d, %d rounds%s, %d setups, %d check-pass rounds; raw round p50 %.6g s, reference kernel p50 %.6g s\n"
    w.name seed (List.length m.rounds)
    (if trace then Printf.sprintf " + %d traced" (List.length m.traced) else "")
    (List.length m.setup) (List.length m.alt)
    (over m.rounds (fun r -> secs r.round_ns))
    (over m.rounds (fun r -> secs r.kernel_ns));
  List.iter (fun (k, u, v) -> Printf.printf "  %-38s %16.6g %s\n" k v u) metrics;
  if trace then Printf.printf "  trace: %s\n" (write_trace w.name);
  if golden then write_golden m.st;
  print_endline (json_line ~attempted:m.st.attempted ~failed:m.st.failed metrics)

let names_of spec key =
  List.map
    (fun m -> Json.(to_str (member "name" m)))
    (Json.to_list (Json.member key spec))

(* One round of every workload at seed 42, traced, checked against the
   goldens and against BENCHMARK.json's schema. *)
let smoke () =
  let spec = Json.of_file "BENCHMARK.json" in
  let problems = ref 0 in
  let problem fmt =
    Printf.ksprintf (fun s -> incr problems; prerr_endline ("ledger smoke: " ^ s)) fmt
  in
  let ws = workloads ~seed:42 in
  if names_of spec "workloads" <> List.map (fun w -> w.name) ws then
    problem "BENCHMARK.json workloads differ from ledger.ml's";
  List.iter
    (fun w ->
      let t0 = now () in
      let m =
        measure ~seed:42 ~seconds:0.0 ~trace:true ~setup_reps:1 ~alt_rounds:1
          ~use_golden:true w
      in
      List.iter
        (fun (key, metrics) ->
          let got = List.sort compare (List.map (fun (k, _, _) -> k) metrics) in
          if got <> List.sort compare (names_of spec key) then
            problem "%s: %s metrics differ from BENCHMARK.json" w.name key;
          List.iter
            (fun (k, _, v) -> if not (Float.is_finite v) then problem "%s: %s = %g" w.name k v)
            metrics)
        [ ("end_to_end", end_to_end m); ("per_layer", per_layer m) ];
      if m.st.failed > 0 then problem "%s: %d of %d lane-runs failed" w.name m.st.failed m.st.attempted;
      Printf.printf "ledger smoke %s: %d lane-runs, %d failed, %.2f s\n%!" w.name
        m.st.attempted m.st.failed (secs (now () - t0)))
    ws;
  exit (if !problems = 0 then 0 else 1)

(* [runs] untraced runs of each workload, one child process per run and
   seeds 1..runs; writes {"<workload>": [<result line>, ...], ...}. *)
let suite ~runs ~seconds ~out names =
  let exe = Sys.executable_name in
  let results =
    List.map
      (fun name ->
        let lines =
          List.init runs (fun i ->
              let args =
                [| exe; "--workload"; name; "--seed"; string_of_int (i + 1);
                   "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0" |]
              in
              let ic = Unix.open_process_args_in exe args in
              let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
              (match Unix.close_process_in ic with
              | Unix.WEXITED 0 -> ()
              | _ -> failwith (Printf.sprintf "%s seed %d: ledger failed" name (i + 1)));
              let last = List.nth lines (List.length lines - 1) in
              Printf.eprintf "ledger: %s seed %d done\n%!" name (i + 1);
              last)
        in
        Printf.sprintf "%S: [\n  %s\n]" name (String.concat ",\n  " lines))
      names
  in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "{%s}\n" (String.concat ",\n" results))

let compare_files base next =
  let spec = Json.of_file "BENCHMARK.json" in
  let b = Json.of_file base and n = Json.of_file next in
  let values j wl metric =
    List.map
      (fun run -> Json.(to_num (member "value" (member metric (member "metrics" run)))))
      (Json.to_list (Json.member wl j))
  in
  let worse = ref 0 in
  Printf.printf "%-13s %-22s %13s %13s %8s %8s %6s  %s\n" "workload" "metric" "base"
    "new" "change" "spread" "bound" "verdict";
  List.iter
    (fun wl ->
      if List.mem wl (Json.keys n) then begin
        List.iter
          (fun run ->
            if not Json.(to_bool (member "correct" run)) then begin
              incr worse;
              Printf.printf "%-13s a run of %s is not correct\n" wl next
            end)
          (Json.to_list (Json.member wl n));
        List.iter
          (fun m ->
            let name = Json.(to_str (member "name" m)) in
            let bound = Json.(to_num (member "bound" m)) in
            let lower_is_better = Json.(to_str (member "better" m)) = "lower" in
            let bv = values b wl name and nv = values n wl name in
            let v = Verdict.judge ~lower_is_better ~bound bv nv in
            if v = Verdict.Worse then incr worse;
            let mb = Verdict.median bv and mn = Verdict.median nv in
            Printf.printf "%-13s %-22s %13.6g %13.6g %+7.2f%% %7.2f%% %5.1f%%  %s\n" wl
              name mb mn
              (100.0 *. (mn -. mb) /. mb)
              (100.0 *. Float.max (Verdict.spread bv) (Verdict.spread nv))
              (100.0 *. bound) (Verdict.to_string v))
          (Json.to_list (Json.member "end_to_end" spec))
      end)
    (Json.keys b);
  exit (if !worse = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20.0 and trace = ref 0 in
  let golden = ref false and smoke_mode = ref false in
  let runs = ref 0 and out = ref "" and base = ref "" and next = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  the workload to measure");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  timed phase length (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1: per-layer metrics and a Chrome trace");
      ("--write-golden", Arg.Set golden, " write golden/<workload>.digest from this run");
      ("--smoke", Arg.Set smoke_mode, " one round of every workload, checked");
      ("--runs", Arg.Set_int runs, "N  with --out: N child runs per workload");
      ("--out", Arg.Set_string out, "FILE  where --runs writes its results");
      ("--compare",
       Arg.Tuple [ Arg.Set_string base; Arg.Set_string next ],
       "BASE NEW  verdict per workload x end-to-end metric") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger: the host-time benchmark (see ledger/README.md)";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "ledger: --trace takes 0 or 1"; exit 2);
  if !base <> "" then compare_files !base !next
  else if !smoke_mode then smoke ()
  else if !runs > 0 then begin
    if !out = "" then (prerr_endline "ledger: --runs needs --out FILE"; exit 2);
    suite ~runs:!runs ~seconds:!seconds ~out:!out
      (if !workload = "" then List.map (fun w -> w.name) (workloads ~seed:0)
       else [ (find_workload ~seed:0 !workload).name ])
  end
  else if !workload = "" then (prerr_endline "ledger: --workload is required"; exit 2)
  else run_one ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~golden:!golden
