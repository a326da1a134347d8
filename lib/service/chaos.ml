(* Seeded chaos schedules for the fleet serving tier.

   A spec is a comma-separated list of fault events ([fault_class])
   plus recovery settings:

     crash@0.30            kill a seeded-random replica at 30% of the run
     crash@0.30:r1         ... replica 1 specifically
     stall@0.45+0.10x4     4x slowdown for replica over [0.45, 0.55)
     heap-shrink@0.60x0.7  restart target into a 0.7x heap
     flash-crowd@0.50+0.15x3  arrival rate x3 over [0.50, 0.65)
     restart:2ms           relaunch delay after a death (default: fleet's)
     warmup:6              slow-start admission ramp, in rounds
     auto-restart:off      leave dead replicas down (default on)

   Times are fractions of the nominal arrival span (request count times
   the mean fleet gap), so a spec is scale-free across workloads and
   request counts. Scheduling is deterministic: unspecified replica
   targets are drawn from one PRNG seeded from the fleet seed at
   schedule-build time, and the fleet fires events only at scheduling
   barriers (checkpoint quantization), so a fixed (spec, seed) pair
   produces bit-identical fault timelines at every domain count. *)

module Spec = Repro_util.Spec

(* Whole-replica and arrival-process faults, not the per-operation
   probability draws of [Repro_engine.Fault]; documented in chaos.mli. *)
type fault_class = Replica_crash | Replica_stall | Heap_shrink | Flash_crowd

let classes =
  [ ("crash", Replica_crash);
    ("stall", Replica_stall);
    ("heap-shrink", Heap_shrink);
    ("flash-crowd", Flash_crowd) ]

let class_names = List.map fst classes

type event_spec = {
  cls : fault_class;
  at : float;  (* fraction of the nominal arrival span *)
  dur : float;  (* fraction; 0 for instantaneous classes *)
  factor : float;
  replica : int option;
}

type spec = {
  events : event_spec list;
  restart_delay_ns : float option;
  warmup_rounds : int option;
  auto_restart : bool;
}

let empty =
  { events = []; restart_delay_ns = None; warmup_rounds = None;
    auto_restart = true }

let setting_keys = [ "restart"; "warmup"; "auto-restart" ]
let known_items = class_names @ setting_keys

(* Per-class factor defaults and legal ranges. *)
let factor_default = function
  | Replica_crash -> 1.0
  | Replica_stall -> 4.0
  | Heap_shrink -> 0.7
  | Flash_crowd -> 3.0

let factor_check cls f =
  match cls with
  | Replica_crash ->
    Error "chaos: crash takes no xFACTOR"
  | Replica_stall when f >= 1.0 && f <= 1000.0 -> Ok f
  | Replica_stall -> Error "chaos: stall factor must be in [1, 1000]"
  | Heap_shrink when f >= 0.05 && f <= 1.0 -> Ok f
  | Heap_shrink -> Error "chaos: heap-shrink factor must be in [0.05, 1]"
  | Flash_crowd when f >= 1.0 && f <= 1000.0 -> Ok f
  | Flash_crowd -> Error "chaos: flash-crowd factor must be in [1, 1000]"

let dur_default = function
  | Replica_stall | Flash_crowd -> 0.1
  | Replica_crash | Heap_shrink -> 0.0

(* "CLS@AT[+DUR][xFACTOR][:rN]" — parse the tail right to left so the
   numeric fields can use scientific notation freely. *)
let parse_event cls_name tail =
  let ( let* ) = Result.bind in
  let* cls = Spec.choose ~what:"chaos fault class" classes cls_name in
  let* replica, tail =
    match String.index_opt tail ':' with
    | Some i when i + 1 < String.length tail && tail.[i + 1] = 'r' ->
      let* n =
        Spec.int_in ~what:"chaos: :rN" ~lo:0 ~hi:max_int
          (String.sub tail (i + 2) (String.length tail - i - 2))
      in
      Ok (Some n, String.sub tail 0 i)
    | Some _ | None -> Ok (None, tail)
  in
  let factor_s, tail =
    match String.rindex_opt tail 'x' with
    | Some i ->
      ( Some (String.sub tail (i + 1) (String.length tail - i - 1)),
        String.sub tail 0 i )
    | None -> (None, tail)
  in
  let dur_s, at_s =
    match String.index_opt tail '+' with
    | Some i ->
      ( Some (String.sub tail (i + 1) (String.length tail - i - 1)),
        String.sub tail 0 i )
    | None -> (None, tail)
  in
  let* at = Spec.float_in ~what:"chaos: @AT" ~lo:0.0 ~hi:1.0 at_s in
  let* dur =
    match dur_s with
    | None -> Ok (dur_default cls)
    | Some s -> Spec.float_in ~what:"chaos: +DUR" ~lo:0.0 ~hi:1.0 s
  in
  let* factor =
    match factor_s with
    | None -> Ok (factor_default cls)
    | Some s ->
      let* f = Spec.float_min ~what:"chaos: xFACTOR" ~lo:0.0 s in
      factor_check cls f
  in
  Ok { cls; at; dur; factor; replica }

let of_spec s =
  Spec.fold_items
    ~f:(fun acc item ->
      match Spec.kv ~sep:'@' item with
      | Some (cls_name, tail) ->
        Result.map
          (fun e -> { acc with events = acc.events @ [ e ] })
          (parse_event cls_name tail)
      | None -> (
        match Spec.kv ~sep:':' item with
        | Some ("restart", v) ->
          Result.map
            (fun d -> { acc with restart_delay_ns = Some d })
            (Spec.duration ~what:"chaos: restart" v)
        | Some ("warmup", v) ->
          Result.map
            (fun n -> { acc with warmup_rounds = Some n })
            (Spec.int_in ~what:"chaos: warmup" ~lo:0 ~hi:10_000 v)
        | Some ("auto-restart", v) ->
          Result.map
            (fun b -> { acc with auto_restart = b })
            (Spec.bool ~what:"chaos: auto-restart" v)
        | Some (key, _) -> Spec.unknown_key ~what:"chaos" ~known:known_items key
        | None ->
          Spec.malformed ~what:"chaos item"
            ~form:"CLASS@AT[+DUR][xFACTOR][:rN] or key:value" ~known:known_items
            item))
    empty s

(* --- Scheduling ---------------------------------------------------------- *)

type firing = {
  f_cls : fault_class;
  f_replica : int;  (* -1 for flash-crowd (arrival-process fault) *)
  f_start : float;  (* absolute fleet ns *)
  f_end : float;
  f_factor : float;
}

type t = { mutable pending : firing list }

let schedule spec ~seed ~replicas ~t0 ~span =
  let prng = Repro_util.Prng.create (seed lxor 0x63686173) in
  let firings =
    List.map
      (fun e ->
        (* One draw per event even when the target is explicit, so
           adding ":rN" to one event does not reshuffle the others. *)
        let drawn = Repro_util.Prng.int prng (max 1 replicas) in
        let f_replica =
          match (e.cls, e.replica) with
          | Flash_crowd, _ -> -1
          | _, Some i -> i
          | _, None -> drawn
        in
        { f_cls = e.cls;
          f_replica;
          f_start = t0 +. (e.at *. span);
          f_end = t0 +. ((e.at +. e.dur) *. span);
          f_factor = e.factor })
      spec.events
  in
  let firings =
    (* Stable sort keeps the spec order for simultaneous events. *)
    List.stable_sort (fun a b -> Float.compare a.f_start b.f_start) firings
  in
  { pending = firings }

let due t ~until =
  let fired, rest = List.partition (fun f -> f.f_start < until) t.pending in
  t.pending <- rest;
  fired

let flash_windows t =
  List.filter_map
    (fun f ->
      if f.f_cls = Flash_crowd then Some (f.f_start, f.f_end, f.f_factor)
      else None)
    t.pending
