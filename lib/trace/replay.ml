open Repro_engine
open Repro_heap

exception Error of string

let null = Obj_model.null

type t = {
  api : Api.t;
  trace : Trace_format.t;
  ring : Trace_format.ring;
  on_measurement_start : unit -> unit;
  (* recorded id -> replay object, and replay id -> recorded id. Both id
     spaces are dense monotonic allocation sequences, so the maps are
     flat arrays indexed by id rather than hashtables — the translation
     sits on the hot path of every replayed write/read/root event. [map]
     is presized from the ring's alloc statistics (so it never grows) and
     holds [Registry.vacant] (id = null) where the old representation held
     [None]: lookups test [obj.id] instead of matching an option, and a
     freed object's entry still resolves to its stale handle —
     stale-handle semantics (reads-as-freed, writes no-op) are part of
     replay fidelity. *)
  mutable map : Obj_model.t array;
  mutable rev : int array;
  hist : Repro_util.Histogram.t;
  mutable idx : int;
  mutable arrival : float;
  mutable requests : int;
  mutable saw_request : bool;
  mutable measuring : bool;
  mutable survived_bytes : int;
  mutable large_bytes : int;
  mutable oom : Api.oom_info option;
  mutable halted : bool;
  mutable finished : bool;
}

let create ?(on_measurement_start = fun () -> ()) api trace =
  let alloc_count, max_id = Trace_format.alloc_stats trace in
  { api;
    trace;
    ring = Trace_format.ring trace;
    on_measurement_start;
    map = Array.make (max 16 (max_id + 1)) Obj_model.Registry.vacant;
    rev = Array.make (max 16 (alloc_count + 2)) 0;
    hist = Repro_util.Histogram.create ();
    idx = 0;
    arrival = 0.0;
    requests = 0;
    saw_request = false;
    measuring = false;
    survived_bytes = 0;
    large_bytes = 0;
    oom = None;
    halted = false;
    finished = false }

let event_index t = t.idx
let halted t = t.halted
let oom t = t.oom

let recorded_id t ~replay_id =
  if replay_id >= 0 && replay_id < Array.length t.rev && t.rev.(replay_id) <> 0
  then Some t.rev.(replay_id)
  else None

let[@inline] map_get t recorded =
  if recorded >= 0 && recorded < Array.length t.map then t.map.(recorded)
  else Obj_model.Registry.vacant

let unknown : t -> string -> int -> 'a =
 fun t what recorded ->
  raise
    (Error
       (Printf.sprintf "event %d: %s references unknown object %d" t.idx what
          recorded))

let[@inline] lookup t recorded what =
  let obj = map_get t recorded in
  if obj.Obj_model.id <> null then obj else unknown t what recorded

(* Stored reference values are plain ids; null passes through. *)
let[@inline] map_ref t v = if v = null then null else (lookup t v "store").Obj_model.id

(* The mutator-level markers are not re-emitted by [Api], so when a
   recorder is attached to the replay run (record-of-replay) the
   replayer mirrors the generative mutator's emissions itself. *)
let tracer t = Sim.tracer (Api.sim t.api)

let finish_engine t =
  Api.finish t.api;
  t.finished <- true

(* Bookkeeping after a successful Alloc replay. *)
let install_alloc t id (obj : Obj_model.t) ~large =
  if id >= Array.length t.map then begin
    let m =
      Array.make (max (2 * Array.length t.map) (id + 1)) Obj_model.Registry.vacant
    in
    Array.blit t.map 0 m 0 (Array.length t.map);
    t.map <- m
  end;
  t.map.(id) <- obj;
  let rid = obj.Obj_model.id in
  if rid >= Array.length t.rev then
    t.rev <- Repro_util.Int_array.grow t.rev (rid + 1) 0;
  t.rev.(rid) <- id;
  if large && t.measuring then t.large_bytes <- t.large_bytes + obj.Obj_model.size

(* Unchecked operand loads: callers pass [i < count], and every operand
   array holds [count] entries. *)
let[@inline] op1 g i = Array.unsafe_get g.Trace_format.op1 i
let[@inline] op2 g i = Array.unsafe_get g.Trace_format.op2 i
let[@inline] op3 g i = Array.unsafe_get g.Trace_format.op3 i
let[@inline] fop g i = Array.unsafe_get g.Trace_format.fop i

(* The dispatch: one match on the ring tag, operands read straight from
   the flat arrays, every operation re-issued through the [Api] entry
   points. The tag literals compile to one jump table; [Trace_format]
   pins them to its [tag_*] constants. [run] drives it in a tight loop;
   the differ steps it in lockstep through [step]. *)
let apply_tag t i tag =
  let g = t.ring in
  match tag with
  | 1 (* alloc *) ->
    let packed = op3 g i in
    let obj = Api.alloc_fast t.api ~size:(op2 g i) ~nfields:(packed lsr 1) in
    if obj.Obj_model.id <> null then
      install_alloc t (op1 g i) obj ~large:(packed land 1 <> 0)
    else begin
      (* Divergence from the recording: this allocation succeeded live.
         Halt, exactly as the generative mutator unwinds on OOM. *)
      t.oom <- Some (Api.last_oom t.api);
      t.halted <- true;
      finish_engine t
    end
  | 2 (* alloc_failed *) ->
    (* The allocation failed during recording but may succeed here; no
       later event names the object, so it is garbage at birth. *)
    let obj = Api.alloc_fast t.api ~size:(op1 g i) ~nfields:(op2 g i) in
    if obj.Obj_model.id = null then t.oom <- Some (Api.last_oom t.api)
  | 3 (* write *) ->
    let rvalue = map_ref t (op3 g i) in
    Api.write t.api (lookup t (op1 g i) "write") (op2 g i) rvalue
  | 4 (* read *) ->
    ignore (Api.read t.api (lookup t (op1 g i) "read") (op2 g i))
  | 5 (* root *) ->
    let rvalue = map_ref t (op2 g i) in
    Api.set_root t.api (op1 g i) rvalue
  | 6 (* work *) -> Api.work t.api ~ns:(fop g i)
  | 7 (* safepoint *) -> Api.safepoint t.api
  | 8 (* request_start *) ->
    let gap = fop g i in
    let tr = tracer t in
    if Tracer.active tr then tr.Tracer.request_start ~gap;
    (* The live engine bases the metered schedule on the simulator clock
       when the request loop starts, then accumulates the recorded gaps —
       so arrivals adapt to how fast *this* collector got through setup,
       exactly as a live run would. *)
    if not t.saw_request then t.arrival <- Sim.now (Api.sim t.api);
    t.arrival <- t.arrival +. gap;
    t.saw_request <- true;
    if Sim.now (Api.sim t.api) < t.arrival then Api.idle_until t.api t.arrival
  | 9 (* request_end *) ->
    let metered = Sim.now (Api.sim t.api) -. t.arrival in
    Repro_util.Histogram.record t.hist (int_of_float (Float.max 1.0 metered));
    t.requests <- t.requests + 1;
    let tr = tracer t in
    if Tracer.active tr then tr.Tracer.request_end ()
  | 10 (* measurement_start *) ->
    let tr = tracer t in
    if Tracer.active tr then tr.Tracer.measurement_start ();
    t.on_measurement_start ();
    t.measuring <- true;
    t.survived_bytes <- 0;
    t.large_bytes <- 0
  | 11 (* survived *) ->
    let bytes = op1 g i in
    t.survived_bytes <- t.survived_bytes + bytes;
    let tr = tracer t in
    if Tracer.active tr then tr.Tracer.survived ~bytes
  | 12 (* finish *) -> finish_engine t
  | _ -> assert false (* decode validated every tag *)

let step t =
  if t.halted || t.finished || t.idx >= t.ring.Trace_format.count then false
  else begin
    apply_tag t t.idx (Char.code (Bytes.unsafe_get t.ring.Trace_format.tags t.idx));
    t.idx <- t.idx + 1;
    not (t.halted || t.finished)
  end

let output t : Repro_mutator.Mut_engine.output =
  let oom = Option.map Api.describe_oom t.oom in
  let latency, requests =
    if t.oom <> None then (None, 0)
    else if t.saw_request then (Some t.hist, t.requests)
    else (None, 0)
  in
  { latency;
    requests;
    survived_bytes = t.survived_bytes;
    large_bytes = t.large_bytes;
    oom }

let run ?on_measurement_start api trace =
  let t = create ?on_measurement_start api trace in
  let tags = t.ring.Trace_format.tags and n = t.ring.Trace_format.count in
  while (not (t.halted || t.finished)) && t.idx < n do
    let i = t.idx in
    apply_tag t i (Char.code (Bytes.unsafe_get tags i));
    t.idx <- i + 1
  done;
  (* A well-formed trace ends in [Finish]; tolerate streams that stop
     short (e.g. assembled by tests) by finishing the collector so the
     accounting is complete either way. *)
  if not t.finished then finish_engine t;
  output t
