open Repro_util
open Repro_engine

let null = Repro_heap.Obj_model.null

(* Root slot assignments (slot [Api.root_slots - 1] is the engine's
   allocation scratch root). *)
let root_mature = 0
let root_list = 1
let root_ring = 2
let root_chain = 3

let mean_large_bytes = 24 * 1024

type output = {
  latency : Histogram.t option;
  requests : int;
  survived_bytes : int;
  large_bytes : int;
  oom : string option;
}

(* Internal control flow for a heap the degradation ladder could not
   save: unwind to [run], which reports the exhaustion as data. *)
exception Oom_stop of Api.oom_info

let alloc_checked api ~size ~nfields =
  let obj = Api.alloc_fast api ~size ~nfields in
  if obj.Repro_heap.Obj_model.id = null then raise (Oom_stop (Api.last_oom api));
  obj

let tracer api = Sim.tracer (Api.sim api)

type state = {
  api : Api.t;
  prng : Prng.t;
  w : Workload.t;
  ring : Repro_heap.Obj_model.t;
  mutable ring_cursor : int;
  table : Repro_heap.Obj_model.t;
  chunks : Repro_heap.Obj_model.t option array;  (* table slot -> chunk, at setup *)
  chunk_count : int;
  chunk_slots : int;
  p_large : float;
  mean_small : int;
  frag : (int * float) array;
  mutable frag_cursor : int;
  mutable alloc_count : int;
  mutable last_survivor : int;
  mutable survived_bytes : int;
  mutable large_bytes : int;
}

let sample_size st =
  if Prng.bool st.prng st.p_large then begin
    let cfg = (Api.heap st.api).Repro_heap.Heap.cfg in
    let lo = cfg.los_threshold + 1 in
    lo + Prng.int st.prng mean_large_bytes
  end
  else Prng.geometric_size st.prng ~mean:st.mean_small ~min:16 ~max:8192

(* Phase shifter: regime B (jflood-like churn bursts) holds for every
   odd window of [phase_allocs] allocations. *)
let in_phase_b st =
  st.w.phase_allocs > 0 && (st.alloc_count / st.w.phase_allocs) land 1 = 1

(* Survived-byte accounting is a mutator decision the replayer cannot
   re-derive, so it is teed to the trace as an annotation event. *)
let note_survived st bytes =
  st.survived_bytes <- st.survived_bytes + bytes;
  let tr = tracer st.api in
  if Tracer.active tr then tr.Tracer.survived ~bytes

(* The chunk in table slot [idx], or the registry's none-handle (id =
   null) when the slot is empty or its chunk was freed. The slot is still
   read through [Api.read] (its charge, trace event and flush point), but
   the handle comes from [chunks], resolved once at setup; the registry
   lookup is only the fallback for a slot that no longer holds that live
   chunk. *)
let read_chunk st idx =
  let chunk_id = Api.read st.api st.table idx in
  match st.chunks.(idx) with
  | Some chunk when chunk.id = chunk_id && not (Repro_heap.Obj_model.is_freed chunk) ->
    chunk
  | Some _ | None ->
    Repro_heap.Obj_model.Registry.find_live (Api.heap st.api).registry chunk_id

let random_chunk st = read_chunk st (Prng.int st.prng st.chunk_count)

(* Install a survivor into a random long-lived slot, dropping the previous
   occupant (mature garbage / churn). *)
let insert_mature st id =
  let chunk = random_chunk st in
  if chunk.id <> null then
    Api.write st.api chunk (Prng.int st.prng st.chunk_slots) id

let do_reads st =
  for _ = 1 to st.w.reads_per_alloc do
    let chunk = random_chunk st in
    if chunk.id <> null then
      ignore (Api.read st.api chunk (Prng.int st.prng st.chunk_slots))
  done

(* Rewire a mature pointer: generates coalescing-barrier and decrement
   traffic without allocating. [a] is drawn before [b], and both before
   either slot: the draw order fixes the stream, so swapping the two
   bindings would change every run. *)
let do_mutation st =
  let a = random_chunk st in
  let b = random_chunk st in
  if a.id <> null && b.id <> null then begin
    let v = Api.read st.api a (Prng.int st.prng st.chunk_slots) in
    Api.write st.api b (Prng.int st.prng st.chunk_slots) v
  end

(* One allocation plus its surrounding activity. *)
let alloc_step st =
  st.alloc_count <- st.alloc_count + 1;
  (* Fragmentation adversary: allocation sizes cycle through the
     interleaved size-class table, each class carrying its own survival
     rate. The cursor is deterministic (no PRNG draw), so the class
     sequence is identical under every collector. Size and rate are
     read from the table in place: a per-step tuple would allocate. *)
  let classes = Array.length st.frag in
  let cls = st.frag_cursor in
  if classes > 0 then st.frag_cursor <- (cls + 1) mod classes;
  let size = if classes = 0 then sample_size st else fst st.frag.(cls) in
  let survival_p =
    if classes = 0 then st.w.survival_rate else snd st.frag.(cls)
  in
  let nfields = 3 + Prng.int st.prng 4 in
  let obj = alloc_checked st.api ~size ~nfields in
  if size > (Api.heap st.api).Repro_heap.Heap.cfg.los_threshold then
    st.large_bytes <- st.large_bytes + obj.size;
  (* Keep it stack-reachable through the nursery ring; the overwritten
     slot's previous occupant dies unless it was promoted. *)
  Api.write st.api st.ring st.ring_cursor obj.id;
  st.ring_cursor <- (st.ring_cursor + 1) mod Workload.nursery_ring_slots;
  if Prng.bool st.prng survival_p then begin
    note_survived st obj.size;
    insert_mature st obj.id;
    if Prng.bool st.prng st.w.cyclic_fraction then begin
      (* An unreachable-cycle pair: RC alone can never reclaim it. *)
      let partner = alloc_checked st.api ~size:32 ~nfields:2 in
      note_survived st partner.size;
      Api.write st.api obj 1 partner.id;
      Api.write st.api partner 1 obj.id
    end;
    if st.last_survivor <> null && Prng.bool st.prng st.w.chain_fraction then
      Api.write st.api obj 2 st.last_survivor;
    st.last_survivor <- obj.id;
    (* The chain head is a local in a real mutator — expose it as a root
       so it stays live until the next survivor replaces it (and so the
       heap verifier's reachability oracle sees every mutator-held
       reference). *)
    Api.set_root st.api root_chain obj.id
  end;
  do_reads st;
  let phase_b = in_phase_b st in
  if Prng.bool st.prng (if phase_b then 1.0 else st.w.extra_mutations) then
    for _ = 1 to if phase_b then st.w.phase_churn else st.w.churn do
      do_mutation st
    done;
  let extra = Workload.extra_work_ns st.w ~size in
  if extra > 0.0 then Api.work st.api ~ns:extra

(* --- Setup: long-lived structure, linked list ------------------------- *)

let build_setup api prng (w : Workload.t) =
  let mature_bytes =
    int_of_float (Workload.mature_fill_fraction *. Float.of_int w.min_heap_bytes)
  in
  let per_survivor =
    Float.of_int w.mean_object_bytes *. (1.0 +. w.cyclic_fraction)
  in
  let capacity = max 64 (int_of_float (Float.of_int mature_bytes /. per_survivor)) in
  let chunk_slots = 32 in
  let chunk_count = max 4 ((capacity + chunk_slots - 1) / chunk_slots) in
  let ring =
    alloc_checked api ~size:(16 + (8 * Workload.nursery_ring_slots))
      ~nfields:Workload.nursery_ring_slots
  in
  Api.set_root api root_ring ring.id;
  let table =
    alloc_checked api ~size:(16 + (8 * chunk_count)) ~nfields:chunk_count
  in
  Api.set_root api root_mature table.id;
  (* [None] first: [Array.make] of more than 256 elements with a young
     handle as the initial value forces a minor collection. *)
  let chunks = Array.make chunk_count None in
  for i = 0 to chunk_count - 1 do
    let chunk =
      alloc_checked api ~size:(16 + (8 * chunk_slots)) ~nfields:chunk_slots
    in
    Api.write api table i chunk.id;
    chunks.(i) <- Some chunk
  done;
  (* The long live singly-linked list (frontier width 1: the tracing
     pathology of §5.2). *)
  if w.linked_list_len > 0 then begin
    let head = ref (alloc_checked api ~size:32 ~nfields:1) in
    Api.set_root api root_list !head.id;
    for _ = 2 to w.linked_list_len do
      let node = alloc_checked api ~size:32 ~nfields:1 in
      Api.write api node 0 !head.id;
      Api.set_root api root_list node.id;
      head := node
    done
  end;
  let mean_small =
    max 24
      (int_of_float
         (Float.of_int w.mean_object_bytes *. (1.0 -. w.large_fraction)))
  in
  let p_large =
    Float.of_int w.mean_object_bytes *. w.large_fraction
    /. Float.of_int mean_large_bytes
  in
  let st =
    { api; prng; w; ring; ring_cursor = 0; table; chunks; chunk_count; chunk_slots;
      p_large; mean_small; frag = Array.of_list w.frag_classes;
      frag_cursor = 0; alloc_count = 0; last_survivor = null;
      survived_bytes = 0; large_bytes = 0 }
  in
  (* Populate the long-lived structure to the target occupancy. *)
  for _ = 1 to capacity do
    let size = Prng.geometric_size prng ~mean:mean_small ~min:16 ~max:8192 in
    let obj = alloc_checked api ~size ~nfields:(3 + Prng.int prng 4) in
    insert_mature st obj.id
  done;
  st

(* --- Measured phases --------------------------------------------------- *)

let run_throughput st ~budget =
  let sim = Api.sim st.api in
  let start = Sim.alloc_bytes sim in
  while Sim.alloc_bytes sim - start < budget do
    alloc_step st
  done

(* One metered request: idle to the arrival (handing the gap to
   concurrent GC), then the request's allocations and compute. Shared by
   the closed single-heap loop below and the fleet serving tier's
   replicas, so both observe the identical mutator behaviour. *)
let serve_one st (r : Workload.request) ~arrival =
  let sim = Api.sim st.api in
  if Sim.now sim < arrival then Api.idle_until st.api arrival;
  for _ = 1 to r.allocs_per_request do
    alloc_step st
  done;
  if r.work_ns_per_request > 0.0 then begin
    (* Spread the compute over several safepoints so collections are not
       artificially deferred to request boundaries. *)
    let chunk = r.work_ns_per_request /. 8.0 in
    for _ = 1 to 8 do
      Api.work st.api ~ns:chunk;
      Api.safepoint st.api
    done
  end

let run_requests st (r : Workload.request) ~count =
  let sim = Api.sim st.api in
  let hist = Histogram.create () in
  let service = Workload.nominal_service_ns st.w r in
  let mean_gap = service /. r.target_utilization in
  let tr = tracer st.api in
  let arrival = ref (Sim.now sim) in
  for _ = 1 to count do
    let gap = Prng.exponential st.prng ~mean:mean_gap in
    arrival := !arrival +. gap;
    if Tracer.active tr then tr.Tracer.request_start ~gap;
    serve_one st r ~arrival:!arrival;
    let metered = Sim.now sim -. !arrival in
    Histogram.record hist (int_of_float (Float.max 1.0 metered));
    if Tracer.active tr then tr.Tracer.request_end ()
  done;
  hist

(* --- Request server (fleet serving tier) ------------------------------- *)

type server = { st : state; request : Workload.request }

let make_server api prng (w : Workload.t) =
  match w.request with
  | None -> Error (w.name ^ " carries no metered request model")
  | Some r -> (
    match build_setup api prng w with
    | st -> Ok { st; request = r }
    | exception Oom_stop info -> Error (Api.describe_oom info))

let server_measurement_start srv =
  Sim.reset_measurement (Api.sim srv.st.api);
  srv.st.survived_bytes <- 0;
  srv.st.large_bytes <- 0

let serve srv ~arrival =
  match serve_one srv.st srv.request ~arrival with
  | () -> None
  | exception Oom_stop info -> Some (Api.describe_oom info)

let server_finish srv = Api.finish srv.st.api

let run ?(on_measurement_start = fun () -> ()) api prng (w : Workload.t) ~scale =
  let oom = ref None in
  let st_opt =
    try Some (build_setup api prng w)
    with Oom_stop info ->
      oom := Some info;
      None
  in
  match st_opt with
  | None ->
    Api.finish api;
    { latency = None;
      requests = 0;
      survived_bytes = 0;
      large_bytes = 0;
      oom = Option.map Api.describe_oom !oom }
  | Some st ->
    let tr = tracer api in
    if Tracer.active tr then tr.Tracer.measurement_start ();
    on_measurement_start ();
    st.survived_bytes <- 0;
    st.large_bytes <- 0;
    let latency, requests =
      try
        match w.request with
        | Some r ->
          let count = max 50 (int_of_float (Float.of_int r.count *. scale)) in
          (Some (run_requests st r ~count), count)
        | None ->
          let budget =
            max (256 * 1024)
              (int_of_float (Float.of_int w.total_alloc_bytes *. scale))
          in
          run_throughput st ~budget;
          (None, 0)
      with Oom_stop info ->
        oom := Some info;
        (None, 0)
    in
    Api.finish api;
    { latency;
      requests;
      survived_bytes = st.survived_bytes;
      large_bytes = st.large_bytes;
      oom = Option.map Api.describe_oom !oom }
