(* The hot accounting state is one all-float record: OCaml gives records
   whose fields are all floats a flat unboxed representation, so the
   per-event charges in Api.write/read/work/set_root mutate in place
   without boxing a float. (A mutable float field in the
   mixed [t] record below would allocate 16 bytes on every store — at
   ~30M replayed events/s that is the difference between ~0 and ~500MB/s
   of minor-heap traffic.) The distilled-cost accumulators live in the
   same record for the same reason. *)
type hot = {
  mutable now : float;
  mutable pending : float;
  mutable mutator_cpu : float;
  mutable gc_cpu : float;
  mutable stw_wall : float;
  mutable stw_cpu : float;
  mutable interference : float;
  mutable last_pause_start : float;
  mutable last_pause_end : float;
  mutable d_barrier : float;
  mutable d_stall : float;
}

type t = {
  cost : Cost_model.t;
  h : hot;
  mutable pause_count : int;
  pauses : Repro_util.Histogram.t;
  mutable alloc_bytes : int;
  mutable alloc_count : int;
  mutable faults : Fault.t;
  mutable tracer : Tracer.t;
  mutable on_pause_end : string -> unit;  (* pause label; verifier hook *)
}

let create cost =
  { cost;
    h =
      { now = 0.0;
        pending = 0.0;
        mutator_cpu = 0.0;
        gc_cpu = 0.0;
        stw_wall = 0.0;
        stw_cpu = 0.0;
        interference = 0.0;
        last_pause_start = neg_infinity;
        last_pause_end = neg_infinity;
        d_barrier = 0.0;
        d_stall = 0.0 };
    pause_count = 0;
    pauses = Repro_util.Histogram.create ();
    alloc_bytes = 0;
    alloc_count = 0;
    faults = Fault.none;
    tracer = Tracer.none;
    on_pause_end = ignore }

let cost t = t.cost
let hot t = t.h
let now t = t.h.now

let reset_measurement t =
  t.h.mutator_cpu <- 0.0;
  t.h.gc_cpu <- 0.0;
  t.h.stw_wall <- 0.0;
  t.h.stw_cpu <- 0.0;
  t.pause_count <- 0;
  Repro_util.Histogram.clear t.pauses;
  t.alloc_bytes <- 0;
  t.alloc_count <- 0;
  t.h.d_barrier <- 0.0;
  t.h.d_stall <- 0.0

let charge_mutator t ns = t.h.pending <- t.h.pending +. ns
let pending t = t.h.pending

let offer_concurrent t ~wall ~conc_threads ~conc_run =
  if conc_threads > 0 && wall > 0.0 then begin
    let budget = wall *. Float.of_int conc_threads in
    let consumed = conc_run ~budget_ns:budget in
    t.h.gc_cpu <- t.h.gc_cpu +. consumed
  end

let flush t ~conc_threads ~conc_run =
  if t.h.pending > 0.0 then begin
    let work = t.h.pending in
    t.h.pending <- 0.0;
    t.h.mutator_cpu <- t.h.mutator_cpu +. work;
    let m = t.cost.mutator_threads in
    let available = max 1 (t.cost.cores - conc_threads) in
    let speed = Float.of_int (min m available) in
    let wall = work /. speed *. (1.0 +. t.h.interference) in
    t.h.now <- t.h.now +. wall;
    offer_concurrent t ~wall ~conc_threads ~conc_run
  end

let advance_idle t ~until ~conc_threads ~conc_run =
  if until > t.h.now then begin
    let idle = until -. t.h.now in
    t.h.now <- until;
    offer_concurrent t ~wall:idle ~conc_threads ~conc_run
  end

let pause ?(label = "pause") t ~wall_ns ~cpu_ns =
  t.h.last_pause_start <- t.h.now;
  t.h.last_pause_end <- t.h.now +. wall_ns;
  t.h.now <- t.h.now +. wall_ns;
  t.h.stw_wall <- t.h.stw_wall +. wall_ns;
  t.h.stw_cpu <- t.h.stw_cpu +. cpu_ns;
  t.h.gc_cpu <- t.h.gc_cpu +. cpu_ns;
  t.pause_count <- t.pause_count + 1;
  Repro_util.Histogram.record t.pauses (int_of_float wall_ns);
  t.on_pause_end label

let set_interference t f = t.h.interference <- f
let mutator_cpu t = t.h.mutator_cpu
let gc_cpu t = t.h.gc_cpu
let stw_wall t = t.h.stw_wall
let stw_cpu t = t.h.stw_cpu
let pause_count t = t.pause_count
let last_pause t = (t.h.last_pause_start, t.h.last_pause_end)
let pauses t = t.pauses

let note_alloc t ~bytes =
  t.alloc_bytes <- t.alloc_bytes + bytes;
  t.alloc_count <- t.alloc_count + 1

let note_barrier t ns = t.h.d_barrier <- t.h.d_barrier +. ns
let barrier_cpu t = t.h.d_barrier
let note_alloc_stall t ns = t.h.d_stall <- t.h.d_stall +. ns
let alloc_stall_ns t = t.h.d_stall

let faults t = t.faults
let set_faults t f = t.faults <- f
let tracer t = t.tracer
let set_tracer t tr = t.tracer <- tr
let set_on_pause_end t f = t.on_pause_end <- f

let alloc_bytes t = t.alloc_bytes
let alloc_count t = t.alloc_count
