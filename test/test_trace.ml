(* Tests for the trace capture/replay subsystem: format roundtrip and
   rejection, recording determinism, replay fidelity (live vs replay,
   record-of-replay byte equality, cross-collector), differential
   testing (clean and under injected faults), the checked-in corpus, and
   the did-you-mean name resolution. *)

open Repro_trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let bench = Repro_mutator.Benchmarks.find

let record ?(collector = Repro_lxr.Lxr.factory) ?(seed = 7) ?(scale = 0.05)
    ?(factor = 1.5) ?record_to name =
  Repro_harness.Runner.run ~seed ~scale ?record_to ~workload:(bench name)
    ~factory:collector ~heap_factor:factor ()

let load path =
  match Trace_format.of_file path with
  | Ok t -> t
  | Error msg -> Alcotest.failf "trace %s failed to load: %s" path msg

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- format ----------------------------------------------------------- *)

let sample_trace () =
  let cfg = Repro_heap.Heap_config.make ~heap_bytes:(1 lsl 20) () in
  let header =
    Trace_format.make_header ~workload:"synthetic" ~collector:"none" ~seed:3
      ~scale:0.5 ~heap_factor:2.0 ~cfg
  in
  let events =
    [| Trace_format.Alloc { id = 1; size = 48; nfields = 3; large = false };
       Trace_format.Alloc { id = 2; size = 65536; nfields = 1; large = true };
       Trace_format.Root { slot = 0; value = 1 };
       Trace_format.Write { src = 1; field = 2; value = 2 };
       Trace_format.Read { src = 1; field = 2 };
       Trace_format.Work { ns = 1234.5 };
       Trace_format.Safepoint;
       Trace_format.Request_start { gap = 99.25 };
       Trace_format.Request_end;
       Trace_format.Measurement_start;
       Trace_format.Survived { bytes = 48 };
       Trace_format.Alloc_failed { size = 1 lsl 21; nfields = 0 };
       Trace_format.Root { slot = 0; value = -1 };
       Trace_format.Finish |]
  in
  Trace_format.of_events header events

let test_roundtrip () =
  let t = sample_trace () in
  match Trace_format.of_string (Trace_format.to_string t) with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok t' ->
    check "header survives" true (t'.header = t.header);
    check_int "version" Trace_format.current_version t'.header.version;
    check "events survive" true (Trace_format.events t' = Trace_format.events t)

let test_rejects_corruption () =
  let s = Trace_format.to_string (sample_trace ()) in
  let expect_error label s' =
    match Trace_format.of_string s' with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  (* Flip one payload byte: the checksum must catch it. *)
  let b = Bytes.of_string s in
  Bytes.set b (String.length s / 2)
    (Char.chr (Char.code (Bytes.get b (String.length s / 2)) lxor 0x40));
  expect_error "bit flip" (Bytes.to_string b);
  expect_error "truncation" (String.sub s 0 (String.length s - 3));
  expect_error "trailing garbage" (s ^ "x");
  expect_error "bad magic" ("NOTTRACE" ^ String.sub s 8 (String.length s - 8));
  expect_error "empty" "";
  (* A bumped version byte must be rejected, not misparsed. *)
  let b = Bytes.of_string s in
  Bytes.set b 8 (Char.chr (Trace_format.current_version + 1));
  expect_error "future version" (Bytes.to_string b)

(* --- qcheck: ring round-trip ------------------------------------------- *)

(* Random event streams: encode -> one-pass ring decode -> boxed view
   must reproduce the seed array exactly (the boxed constructor path
   [of_events] is the reference representation), and re-encoding the
   decoded ring must be byte-identical to the first encoding. Operand
   ranges cover the full shapes the recorder emits, null (-1) referents
   included — negatives exercise the 10-byte LEB128 escape. *)
let gen_event : Trace_format.event QCheck.Gen.t =
  let open QCheck.Gen in
  let rid = int_range 1 1_000_000 in
  let vref = frequency [ (1, return (-1)); (4, int_range 1 1_000_000) ] in
  let posf = map (fun n -> Float.of_int n /. 16.0) (int_range 0 (1 lsl 20)) in
  frequency
    [ ( 4,
        map
          (fun ((id, size), (nfields, large)) ->
            Trace_format.Alloc { id; size; nfields; large })
          (pair (pair rid (int_range 16 65536)) (pair (int_range 0 8) bool)) );
      ( 1,
        map
          (fun (size, nfields) -> Trace_format.Alloc_failed { size; nfields })
          (pair (int_range 1 (1 lsl 22)) (int_range 0 8)) );
      ( 4,
        map
          (fun ((src, field), value) -> Trace_format.Write { src; field; value })
          (pair (pair rid (int_range 0 7)) vref) );
      ( 2,
        map
          (fun (src, field) -> Trace_format.Read { src; field })
          (pair rid (int_range 0 7)) );
      ( 2,
        map
          (fun (slot, value) -> Trace_format.Root { slot; value })
          (pair (int_range 0 63) vref) );
      (2, map (fun ns -> Trace_format.Work { ns }) posf);
      (1, return Trace_format.Safepoint);
      (1, map (fun gap -> Trace_format.Request_start { gap }) posf);
      (1, return Trace_format.Request_end);
      (1, return Trace_format.Measurement_start);
      ( 1,
        map (fun bytes -> Trace_format.Survived { bytes }) (int_range 0 (1 lsl 20))
      );
      (1, return Trace_format.Finish) ]

let print_event (e : Trace_format.event) =
  match e with
  | Alloc { id; size; nfields; large } ->
    Printf.sprintf "Alloc{id=%d;size=%d;nfields=%d;large=%b}" id size nfields
      large
  | Alloc_failed { size; nfields } ->
    Printf.sprintf "Alloc_failed{size=%d;nfields=%d}" size nfields
  | Write { src; field; value } ->
    Printf.sprintf "Write{src=%d;field=%d;value=%d}" src field value
  | Read { src; field } -> Printf.sprintf "Read{src=%d;field=%d}" src field
  | Root { slot; value } -> Printf.sprintf "Root{slot=%d;value=%d}" slot value
  | Work { ns } -> Printf.sprintf "Work{ns=%h}" ns
  | Safepoint -> "Safepoint"
  | Request_start { gap } -> Printf.sprintf "Request_start{gap=%h}" gap
  | Request_end -> "Request_end"
  | Measurement_start -> "Measurement_start"
  | Survived { bytes } -> Printf.sprintf "Survived{bytes=%d}" bytes
  | Finish -> "Finish"

let arb_events =
  QCheck.make
    ~print:(fun evs ->
      String.concat "; " (Array.to_list (Array.map print_event evs)))
    QCheck.Gen.(map Array.of_list (list_size (int_range 0 300) gen_event))

let qcheck_header () =
  let cfg = Repro_heap.Heap_config.make ~heap_bytes:(1 lsl 20) () in
  Trace_format.make_header ~workload:"qcheck" ~collector:"none" ~seed:11
    ~scale:1.0 ~heap_factor:2.0 ~cfg

let prop_ring_roundtrip =
  QCheck.Test.make ~count:300 ~name:"ring round-trip equals seed events"
    arb_events (fun evs ->
      let t = Trace_format.of_events (qcheck_header ()) evs in
      let s = Trace_format.to_string t in
      match Trace_format.of_string s with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok t' ->
        let stats =
          Array.fold_left
            (fun (n, m) (e : Trace_format.event) ->
              match e with Alloc { id; _ } -> (n + 1, max m id) | _ -> (n, m))
            (0, 0) evs
        in
        t'.header = t.header
        && Trace_format.events t' = evs
        && Trace_format.to_string t' = s
        && Trace_format.alloc_stats t = stats
        && Trace_format.alloc_stats t' = stats)

(* The trailer's event count only sizes the decoded ring. Re-assemble
   the stream with a different count — below the real one (forcing the
   ring to regrow), past the body length, negative (a 10-byte varint) —
   and the decoder must still report exactly the mismatch the forward
   parse finds, the checksum being valid. *)
let prop_trailer_count_is_a_hint =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 0 300) gen_event >>= fun evs ->
    let n = List.length evs in
    let below = if n = 0 then [] else [ (2, int_range 0 (n - 1)) ] in
    frequency
      (below
      @ [ (2, int_range (n + 1) (n + 400));
          (1, int_range 1_000_000 max_int);
          (1, int_range min_int (-1)) ])
    >|= fun c -> (Array.of_list evs, c)
  in
  let arb =
    QCheck.make
      ~print:(fun (evs, c) ->
        Printf.sprintf "count %d over %d events: %s" c (Array.length evs)
          (String.concat "; " (Array.to_list (Array.map print_event evs))))
      gen
  in
  QCheck.Test.make ~count:300 ~name:"trailer count is only a size hint" arb
    (fun (evs, c) ->
      let n = Array.length evs in
      let header_buf = Buffer.create 64 and events_buf = Buffer.create 1024 in
      Trace_format.encode_header header_buf (qcheck_header ());
      Array.iter (Trace_format.encode_event events_buf) evs;
      let s = Trace_format.assemble ~header_buf ~events_buf ~count:c in
      match Trace_format.of_string s with
      | Ok _ -> QCheck.Test.fail_reportf "count %d accepted over %d events" c n
      | Error msg ->
        msg
        = Printf.sprintf "event count mismatch: trailer says %d, stream has %d" c
            n)

(* A reference LEB128 reader with the decoder's limits: a varint runs to
   its first byte below 0x80, and one whose 11th byte still continues is
   too long. Groups at bit 63 and above are left out ([lsl] by 63 or
   more is unspecified); the encodings below keep them zero. *)
let reference_uv s pos =
  let rec go pos k acc =
    if pos >= String.length s then Error "truncated trace"
    else begin
      let b = Char.code s.[pos] in
      let acc = if 7 * k < 63 then acc lor ((b land 0x7f) lsl (7 * k)) else acc in
      if b < 0x80 then Ok (acc, pos + 1)
      else if k = 10 then Error "varint too long"
      else go (pos + 1) (k + 1) acc
    end
  in
  go pos 0 0

(* [v] as an [len]-byte varint, over-long when [len] exceeds the
   canonical length. *)
let encode_uv v len =
  String.init len (fun k ->
      let group = if 7 * k < 63 then (v lsr (7 * k)) land 0x7f else 0 in
      Char.chr (if k < len - 1 then group lor 0x80 else group))

let canonical_uv_len v =
  let rec go k = if k = 9 || v lsr (7 * k) = 0 then max 1 k else go (k + 1) in
  go 1

let reference_fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Traces whose trailer count is a random varint encoding — canonical,
   over-long, 10 to 12 bytes — with a valid checksum, each also cut at
   every offset from the end-of-stream tag on. [of_string] must agree
   with the reference reader on every one: the count it reports, or
   the error. The cuts move the varint across the 11-byte threshold of
   the decoder's unchecked loop. *)
let prop_varint_trailer =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 0 20) gen_event >>= fun evs ->
    let n = List.length evs in
    frequency
      [ (3, return n);
        (1, int_range 0 200);
        (2, int_range 0 max_int);
        (1, int_range min_int (-1)) ]
    >>= fun v ->
    let canonical = canonical_uv_len v in
    frequency
      [ (1, return canonical);
        (1, int_range canonical 12);
        (3, int_range (max canonical 10) 12) ]
    >|= fun len -> (Array.of_list evs, v, len)
  in
  let arb =
    QCheck.make
      ~print:(fun (evs, v, len) ->
        Printf.sprintf "count %d as %d bytes over %d events" v len (Array.length evs))
      gen
  in
  QCheck.Test.make ~count:300 ~name:"trailer varints decode as the reference reader"
    arb (fun (evs, v, len) ->
      let n = Array.length evs in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "LXRTRACE";
      Trace_format.encode_header buf (qcheck_header ());
      Array.iter (Trace_format.encode_event buf) evs;
      Buffer.add_char buf '\000';
      let count_pos = Buffer.length buf in
      Buffer.add_string buf (encode_uv v len);
      let body = Buffer.contents buf in
      let sum = Bytes.create 8 in
      Bytes.set_int64_le sum 0 (reference_fnv1a body);
      let trace = body ^ Bytes.to_string sum in
      let expected s =
        match reference_uv s count_pos with
        | Error msg -> Error msg
        | Ok (c, next) ->
          if c <> n then
            Error
              (Printf.sprintf "event count mismatch: trailer says %d, stream has %d"
                 c n)
          else if String.length s - next < 8 then Error "truncated trace"
          else if next + 8 < String.length s then Error "trailing garbage"
          else Ok evs
      in
      let rec each cut =
        cut > String.length trace
        ||
        let s = String.sub trace 0 cut in
        let actual =
          match Trace_format.of_string s with
          | Ok t -> Ok (Trace_format.events t)
          | Error msg -> Error msg
        in
        let want = if cut = count_pos - 1 then Error "truncated trace" else expected s in
        if actual <> want then
          QCheck.Test.fail_reportf "cut at %d of %d: got %s, want %s" cut
            (String.length trace)
            (match actual with Ok _ -> "Ok" | Error m -> m)
            (match want with Ok _ -> "Ok" | Error m -> m)
        else each (cut + 1)
      in
      each (count_pos - 1))

(* Decode-rejection parity: a fixed corruption matrix must keep failing
   with byte-for-byte identical error strings — the contract the
   one-pass ring decoder preserved from the seed decoder. *)
let test_rejection_parity_matrix () =
  let s = Trace_format.to_string (sample_trace ()) in
  let empty = Trace_format.to_string (Trace_format.of_events (qcheck_header ()) [||]) in
  let patch str i c =
    let b = Bytes.of_string str in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let len = String.length s in
  (* Trailer layout: ... events, tag_end byte, count varint, 8 checksum
     bytes. The sample's count (14) and the patched count (15) are both
     single-byte varints, so the count patch is length-preserving and is
     reached before the checksum comparison. *)
  let cases =
    [ ("empty", "", "too short to be a trace");
      ("too short", "LXRTRACE", "too short to be a trace");
      ( "bad magic",
        "NOTTRACE" ^ String.sub s 8 (len - 8),
        "bad magic (not an lxr_trace file)" );
      ( "future version",
        patch s 8 (Char.chr (Trace_format.current_version + 1)),
        Printf.sprintf "unsupported trace version %d (reader supports %d)"
          (Trace_format.current_version + 1)
          Trace_format.current_version );
      ("truncated checksum", String.sub s 0 (len - 3), "truncated trace");
      ("trailing garbage", s ^ "x", "trailing garbage");
      ( "checksum flip",
        patch s (len - 1)
          (Char.chr (Char.code s.[len - 1] lxor 0x40)),
        "checksum mismatch" );
      ( "count mismatch",
        patch s (len - 9) '\015',
        "event count mismatch: trailer says 15, stream has 14" );
      ( "unknown tag",
        patch empty (String.length empty - 10) '\060',
        "unknown event tag 60" );
      ( "varint too long",
        String.sub empty 0 (String.length empty - 10)
        ^ String.make 11 '\xff',
        "varint too long" );
      (* Header string lengths of -1 and max_int: neither may reach
         [String.sub]. *)
      ( "negative string length",
        "LXRTRACE\001" ^ String.make 9 '\xff' ^ "\001",
        "truncated trace" );
      ( "huge string length",
        "LXRTRACE\001" ^ String.make 8 '\xff' ^ "\x3f",
        "truncated trace" ) ]
  in
  List.iter
    (fun (label, s', expected) ->
      match Trace_format.of_string s' with
      | Ok _ -> Alcotest.failf "%s accepted" label
      | Error msg -> check_string label expected msg)
    cases

let test_header_heap_config () =
  let t = sample_trace () in
  let cfg = Trace_format.heap_config t.header in
  check_int "heap bytes" (1 lsl 20) cfg.Repro_heap.Heap_config.heap_bytes;
  check_int "block bytes" t.header.block_bytes
    cfg.Repro_heap.Heap_config.block_bytes;
  check_int "los threshold" t.header.los_threshold
    cfg.Repro_heap.Heap_config.los_threshold

(* A checksum-valid trace whose header no heap can be built from is
   rejected at decode, naming the geometry; damage to the same file is
   still reported as damage. *)
let test_rejects_impossible_geometry () =
  let t = sample_trace () in
  let h = t.header in
  List.iter
    (fun (label, header, expected) ->
      let s = Trace_format.to_string { t with header } in
      (match Trace_format.of_string s with
      | Ok _ -> Alcotest.failf "%s accepted" label
      | Error msg -> check_string label expected msg);
      let len = String.length s in
      let b = Bytes.of_string s in
      Bytes.set b (len - 1) (Char.chr (Char.code s.[len - 1] lxor 0x40));
      match Trace_format.of_string (Bytes.to_string b) with
      | Ok _ -> Alcotest.failf "%s with a bad checksum accepted" label
      | Error msg -> check_string (label ^ ", bad checksum") "checksum mismatch" msg)
    [ ( "block_bytes 3",
        { h with block_bytes = 3 },
        "Heap_config: block_bytes (3) must be a power of two" );
      ("rc_bits 3", { h with rc_bits = 3 }, "Heap_config: rc_bits must be 1, 2, 4, or 8");
      ( "heap_bytes 100",
        { h with heap_bytes = 100 },
        "Heap_config: heap smaller than one block" ) ]

(* --- recording -------------------------------------------------------- *)

let test_record_deterministic () =
  let a = tmp "det_a.lxrtrace" and b = tmp "det_b.lxrtrace" in
  let ra = record ~record_to:a "luindex" in
  let rb = record ~record_to:b "luindex" in
  check "both ok" true (ra.ok && rb.ok);
  check "byte-identical recordings" true (read_file a = read_file b);
  let t = load a in
  check "has events" true (Trace_format.num_events t > 100);
  check_string "workload in header" "luindex" t.header.workload;
  check_int "seed in header" 7 t.header.seed

let test_recording_is_free () =
  (* Teeing the stream must not perturb the run itself. *)
  let plain = record "luindex" in
  let taped = record ~record_to:(tmp "free.lxrtrace") "luindex" in
  check "same wall time" true (plain.wall_ns = taped.wall_ns);
  check_int "same allocs" plain.alloc_count taped.alloc_count;
  check_int "same pauses" plain.pause_count taped.pause_count;
  check "same stats" true (plain.collector_stats = taped.collector_stats)

(* --- replay ----------------------------------------------------------- *)

let same_histogram a b =
  Repro_util.Histogram.count a = Repro_util.Histogram.count b
  && List.for_all
       (fun p ->
         Repro_util.Histogram.percentile_opt a p
         = Repro_util.Histogram.percentile_opt b p)
       [ 50.0; 90.0; 99.0; 100.0 ]

let check_same_run label (live : Repro_harness.Runner.result)
    (replayed : Repro_harness.Runner.result) =
  let ck name cond = check (label ^ ": " ^ name) true cond in
  ck "ok" (live.ok = replayed.ok);
  ck "wall" (live.wall_ns = replayed.wall_ns);
  ck "mutator cpu" (live.mutator_cpu_ns = replayed.mutator_cpu_ns);
  ck "gc cpu" (live.gc_cpu_ns = replayed.gc_cpu_ns);
  ck "stw wall" (live.stw_wall_ns = replayed.stw_wall_ns);
  ck "pause count" (live.pause_count = replayed.pause_count);
  ck "pause histogram" (same_histogram live.pauses replayed.pauses);
  ck "requests" (live.requests = replayed.requests);
  ck "alloc bytes" (live.alloc_bytes = replayed.alloc_bytes);
  ck "alloc count" (live.alloc_count = replayed.alloc_count);
  ck "survived" (live.survived_bytes = replayed.survived_bytes);
  ck "large" (live.large_bytes = replayed.large_bytes);
  ck "collector stats" (live.collector_stats = replayed.collector_stats);
  (match (live.latency, replayed.latency) with
  | Some a, Some b -> ck "latency histogram" (same_histogram a b)
  | None, None -> ()
  | _ -> ck "latency presence" false)

let test_replay_matches_live () =
  let path = tmp "fidelity.lxrtrace" in
  let live = record ~record_to:path "luindex" in
  let replayed =
    Repro_harness.Runner.replay ~trace:(load path)
      ~factory:Repro_lxr.Lxr.factory ()
  in
  check_same_run "luindex/lxr" live replayed

let test_replay_matches_live_requests () =
  (* A latency workload: request markers, metered arrivals, latency
     histogram — all must survive the trip through the trace. *)
  let path = tmp "fidelity_req.lxrtrace" in
  let live = record ~scale:0.01 ~record_to:path "lusearch" in
  check "live has requests" true (live.requests > 0);
  let replayed =
    Repro_harness.Runner.replay ~trace:(load path)
      ~factory:Repro_lxr.Lxr.factory ()
  in
  check_same_run "lusearch/lxr" live replayed

let test_replay_cross_collector () =
  (* The stream is collector-independent: replaying an LXR-recorded
     trace under G1 must equal a live G1 run on the same workload. *)
  let path = tmp "cross.lxrtrace" in
  let g1 = Repro_collectors.G1.factory in
  let live_lxr = record ~record_to:path "luindex" in
  check "recording run ok" true live_lxr.ok;
  let live_g1 = record ~collector:g1 "luindex" in
  let replayed_g1 = Repro_harness.Runner.replay ~trace:(load path) ~factory:g1 () in
  check_same_run "luindex/g1" live_g1 replayed_g1

let test_record_of_replay_is_identity () =
  let path = tmp "rr_a.lxrtrace" and path' = tmp "rr_b.lxrtrace" in
  ignore (record ~record_to:path "luindex");
  let r =
    Repro_harness.Runner.replay ~record_to:path' ~trace:(load path)
      ~factory:Repro_lxr.Lxr.factory ()
  in
  check "replay ok" true r.ok;
  check "record of replay is byte-identical" true
    (read_file path = read_file path')

(* --- differential testing --------------------------------------------- *)

let lanes names =
  List.map (fun n -> (n, Option.get (Repro_harness.Collector_set.find n |> Result.to_option))) names

let test_diff_clean () =
  let path = tmp "diff_clean.lxrtrace" in
  ignore (record ~record_to:path "luindex");
  let report =
    Differ.run ~verify:true ~trace:(load path)
      ~collectors:(lanes [ "lxr"; "g1"; "shenandoah" ])
      ()
  in
  check_int "no divergences" 0 report.total_divergences;
  check "checkpoints ran" true (report.checkpoints > 0);
  check "oracle ran per collector" true
    (report.oracle_checks >= 3 * report.checkpoints)

let test_diff_localises_injected_fault () =
  let path = tmp "diff_fault.lxrtrace" in
  ignore (record ~record_to:path "luindex");
  let fault =
    match Repro_engine.Fault.of_spec ~seed:7 "drop-barrier:2e-3" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let report =
    Differ.run ~verify:true ~inject:("lxr", fault) ~trace:(load path)
      ~collectors:(lanes [ "lxr"; "g1" ])
      ()
  in
  check "divergence detected" true (report.total_divergences > 0);
  match report.divergences with
  | [] -> Alcotest.fail "no divergence retained"
  | d :: _ ->
    check "localised to the faulty lane" true
      (d.subject <> "" && d.event_index > 0);
    check "points at the injected collector or a concrete object" true
      (String.length d.detail > 0)

let test_diff_rejects_unknown_inject_target () =
  let path = tmp "diff_target.lxrtrace" in
  ignore (record ~record_to:path "luindex");
  let fault =
    match Repro_engine.Fault.of_spec ~seed:7 "drop-barrier:2e-3" with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  check "a target naming no lane is rejected" true
    (match
       Differ.run ~inject:("lxrr", fault) ~trace:(load path)
         ~collectors:(lanes [ "lxr"; "g1" ])
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- corpus ----------------------------------------------------------- *)

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lxrtrace")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let test_corpus_present () =
  check "3-workload corpus" true (List.length (corpus_files ()) >= 3)

let test_corpus_decode_allocates_ring_only () =
  (* The ring is 33 B per event (a tag byte and four 8-byte operand
     slots); decode allocates it once, at the trailer's count. *)
  List.iter
    (fun path ->
      let s = read_file path in
      (* Start from an empty minor heap: young data allocated before the
         window and promoted inside it would otherwise count as decode
         allocation (57 B/event when this test runs alone). *)
      Gc.minor ();
      let a0 = Gc.allocated_bytes () in
      let t =
        match Trace_format.of_string s with
        | Ok t -> t
        | Error msg -> Alcotest.failf "%s: %s" path msg
      in
      let per_event =
        (Gc.allocated_bytes () -. a0) /. Float.of_int (Trace_format.num_events t)
      in
      if per_event >= 40.0 then
        Alcotest.failf "%s: decode allocated %.1f B/event" path per_event)
    (corpus_files ())

let test_corpus_replays_everywhere () =
  (* Acceptance: each corpus trace, replayed through LXR, G1 and the
     concurrent mark-evacuate family, equals the live run at that seed. *)
  List.iter
    (fun path ->
      let trace = load path in
      let h = trace.Trace_format.header in
      List.iter
        (fun name ->
          let factory =
            match Repro_harness.Collector_set.find name with
            | Ok f -> f
            | Error m -> Alcotest.fail m
          in
          let live =
            Repro_harness.Runner.run ~seed:h.seed ~scale:h.scale
              ~workload:(bench h.workload) ~factory ~heap_factor:h.heap_factor
              ()
          in
          let replayed = Repro_harness.Runner.replay ~trace ~factory () in
          check_same_run
            (Printf.sprintf "%s under %s" (Filename.basename path) name)
            live replayed)
        [ "lxr"; "g1"; "shenandoah" ])
    (corpus_files ())

let test_corpus_record_of_replay_fixpoint () =
  (* The checked-in corpus traces are record-of-replay fixpoints:
     replaying one under LXR while recording must reproduce the file byte
     for byte. This pins the object store's external id assignment — ids
     are monotonic allocation-sequence numbers, so recycled slots must
     never leak into the ids the recorder writes. *)
  List.iter
    (fun path ->
      let out = tmp (Filename.basename path ^ ".ror") in
      let r =
        Repro_harness.Runner.replay ~record_to:out ~trace:(load path)
          ~factory:Repro_lxr.Lxr.factory ()
      in
      check (path ^ ": replay ok") true r.ok;
      check
        (path ^ ": record of replay is byte-identical to the corpus file")
        true
        (read_file path = read_file out))
    (corpus_files ())

let test_corpus_diff_clean () =
  List.iter
    (fun path ->
      let report =
        Differ.run ~verify:true ~trace:(load path)
          ~collectors:(lanes [ "lxr"; "g1"; "shenandoah" ])
          ()
      in
      check_int (Filename.basename path ^ " divergence-free") 0
        report.total_divergences)
    (corpus_files ())

(* --- name suggestions ------------------------------------------------- *)

let test_suggest () =
  check_int "distance" 1 (Repro_util.Suggest.edit_distance "g1" "g2");
  check "close match" true
    (Repro_util.Suggest.closest ~candidates:[ "lusearch"; "luindex" ] "lusearhc"
    = Some "lusearch");
  check "no match for garbage" true
    (Repro_util.Suggest.closest ~candidates:[ "lusearch" ] "zzzzzzzz" = None);
  check_string "hint rendering" " (did you mean \"g1\"?)"
    (Repro_util.Suggest.hint ~candidates:[ "g1"; "zgc" ] "g2")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_unknown_names () =
  (match Repro_harness.Collector_set.find "shenandoa" with
  | Ok _ -> Alcotest.fail "accepted bad collector"
  | Error msg ->
    check "collector suggestion" true
      (contains ~needle:"did you mean \"shenandoah\"" msg));
  match Repro_harness.Collector_set.find_workload "luindx" with
  | Ok _ -> Alcotest.fail "accepted bad workload"
  | Error msg ->
    check "workload suggestion" true
      (contains ~needle:"did you mean \"luindex\"" msg)

let suite =
  [ ( "trace:format",
      [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "rejects corruption" `Quick test_rejects_corruption;
        Alcotest.test_case "rejection parity matrix" `Quick
          test_rejection_parity_matrix;
        QCheck_alcotest.to_alcotest prop_ring_roundtrip;
        QCheck_alcotest.to_alcotest prop_trailer_count_is_a_hint;
        QCheck_alcotest.to_alcotest prop_varint_trailer;
        Alcotest.test_case "header rebuilds heap config" `Quick
          test_header_heap_config;
        Alcotest.test_case "rejects impossible heap geometry" `Quick
          test_rejects_impossible_geometry ] );
    ( "trace:record",
      [ Alcotest.test_case "deterministic recording" `Quick
          test_record_deterministic;
        Alcotest.test_case "recording is observationally free" `Quick
          test_recording_is_free ] );
    ( "trace:replay",
      [ Alcotest.test_case "replay matches live" `Quick test_replay_matches_live;
        Alcotest.test_case "replay matches live (requests)" `Quick
          test_replay_matches_live_requests;
        Alcotest.test_case "cross-collector fidelity" `Quick
          test_replay_cross_collector;
        Alcotest.test_case "record of replay is identity" `Quick
          test_record_of_replay_is_identity ] );
    ( "trace:diff",
      [ Alcotest.test_case "clean three-way diff" `Quick test_diff_clean;
        Alcotest.test_case "injected fault localised" `Quick
          test_diff_localises_injected_fault;
        Alcotest.test_case "unknown inject target rejected" `Quick
          test_diff_rejects_unknown_inject_target ] );
    ( "trace:corpus",
      [ Alcotest.test_case "corpus present" `Quick test_corpus_present;
        Alcotest.test_case "corpus decode allocates only the ring" `Quick
          test_corpus_decode_allocates_ring_only;
        Alcotest.test_case "corpus replays everywhere" `Slow
          test_corpus_replays_everywhere;
        Alcotest.test_case "corpus record-of-replay fixpoint" `Quick
          test_corpus_record_of_replay_fixpoint;
        Alcotest.test_case "corpus diffs clean" `Slow test_corpus_diff_clean ] );
    ( "trace:names",
      [ Alcotest.test_case "suggest" `Quick test_suggest;
        Alcotest.test_case "unknown names suggest" `Quick test_unknown_names ] )
  ]
