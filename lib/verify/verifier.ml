open Repro_heap
open Repro_engine
module Vec = Repro_util.Vec

type violation = {
  module_ : string;
  invariant : string;
  subject : string;
  expected : string;
  found : string;
}

let violation_to_string v =
  Printf.sprintf "%s/%s: %s: expected %s, found %s" v.module_ v.invariant
    v.subject v.expected v.found

type safepoint = Pre_pause | Post_pause | End_of_run

let safepoint_name = function
  | Pre_pause -> "pre"
  | Post_pause -> "post"
  | End_of_run -> "end"

let points_of_string s =
  let points =
    [ ("pre", [ Pre_pause ]);
      ("post", [ Post_pause ]);
      ("end", [ End_of_run ]);
      ("all", [ Pre_pause; Post_pause; End_of_run ]) ]
  in
  match
    Repro_util.Spec.fold_items
      ~f:(fun acc tok ->
        Result.map
          (fun ps -> List.rev_append ps acc)
          (Repro_util.Spec.choose ~what:"safepoint" points tok))
      [] s
  with
  | Ok [] -> Error "empty safepoint list"
  | r -> Result.map List.rev r

let state_name = function
  | Blocks.Free -> "Free"
  | Blocks.Recyclable -> "Recyclable"
  | Blocks.Owned -> "Owned"
  | Blocks.In_use -> "In_use"
  | Blocks.Los_backing -> "Los_backing"

let describe (o : Obj_model.t) =
  Printf.sprintf "object %d (addr %d, size %d)" o.id (Obj_model.addr o) o.size

let check_heap ?(roots = [||]) ?(introspect = Collector.no_introspection)
    (heap : Heap.t) =
  let cfg = heap.Heap.cfg in
  let stuck = Heap_config.stuck_count cfg in
  let out = ref [] in
  let v ~module_ ~invariant ~subject ~expected ~found =
    out := { module_; invariant; subject; expected; found } :: !out
  in
  let live_objs = ref [] in
  Obj_model.Registry.iter
    (fun o -> if not (Obj_model.is_freed o) then live_objs := o :: !live_objs)
    heap.registry;
  let live_objs = !live_objs in
  let is_los (o : Obj_model.t) = Heap.is_los heap o in
  let geometry_ok (o : Obj_model.t) =
    let a = Obj_model.addr o in
    Addr.valid cfg a && Addr.is_granule_aligned cfg a
  in

  (* --- Registry geometry, block residency, LOS backing. --- *)
  List.iter
    (fun (o : Obj_model.t) ->
      let subject = describe o in
      let oaddr = Obj_model.addr o in
      if not (Addr.valid cfg oaddr) then
        v ~module_:"registry" ~invariant:"addr-in-heap" ~subject
          ~expected:(Printf.sprintf "0 <= addr < %d" cfg.heap_bytes)
          ~found:(string_of_int oaddr)
      else if not (Addr.is_granule_aligned cfg oaddr) then
        v ~module_:"registry" ~invariant:"addr-granule-aligned" ~subject
          ~expected:(Printf.sprintf "multiple of %d" cfg.granule_bytes)
          ~found:(string_of_int oaddr)
      else if is_los o then begin
        match Heap.los_extent heap o with
        | [] ->
          v ~module_:"los" ~invariant:"has-backing" ~subject
            ~expected:"at least one backing block" ~found:"none"
        | first :: _ as backing ->
          if oaddr <> Addr.block_start cfg first then
            v ~module_:"los" ~invariant:"addr-is-first-backing" ~subject
              ~expected:(string_of_int (Addr.block_start cfg first))
              ~found:(string_of_int oaddr);
          List.iter
            (fun b ->
              if Blocks.state heap.blocks b <> Blocks.Los_backing then
                v ~module_:"los" ~invariant:"backing-state"
                  ~subject:(Printf.sprintf "%s backing block %d" subject b)
                  ~expected:"Los_backing"
                  ~found:(state_name (Blocks.state heap.blocks b)))
            backing;
          if
            not (Vec.exists (fun id -> id = o.id) (Blocks.residents heap.blocks first))
          then
            v ~module_:"blocks" ~invariant:"los-resident-listed" ~subject
              ~expected:
                (Printf.sprintf "id %d in block %d resident list" o.id first)
              ~found:"absent"
      end
      else begin
        let b = Addr.block_of cfg oaddr in
        let b_end = Addr.block_of cfg (oaddr + o.size - 1) in
        if b <> b_end then
          v ~module_:"registry" ~invariant:"within-one-block" ~subject
            ~expected:"object contained in a single block"
            ~found:(Printf.sprintf "spans blocks %d..%d" b b_end);
        (match Blocks.state heap.blocks b with
        | Blocks.Owned | Blocks.In_use | Blocks.Recyclable -> ()
        | st ->
          v ~module_:"blocks" ~invariant:"resident-block-state" ~subject
            ~expected:"Owned, In_use or Recyclable" ~found:(state_name st));
        if not (Vec.exists (fun id -> id = o.id) (Blocks.residents heap.blocks b))
        then
          v ~module_:"blocks" ~invariant:"resident-listed" ~subject
            ~expected:(Printf.sprintf "id %d in block %d resident list" o.id b)
            ~found:"absent"
      end)
    live_objs;

  (* Every Los_backing block must belong to a live large object. *)
  let los_blocks = Hashtbl.create 16 in
  List.iter
    (fun (o : Obj_model.t) ->
      if is_los o then
        List.iter
          (fun b -> Hashtbl.replace los_blocks b ())
          (Heap.los_extent heap o))
    live_objs;
  Blocks.iter_state heap.blocks Blocks.Los_backing (fun b ->
      if not (Hashtbl.mem los_blocks b) then
        v ~module_:"los" ~invariant:"backing-owned"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"backing a live large object"
          ~found:"Los_backing block with no owner");

  (* --- No two live objects overlap. --- *)
  let intervals = ref [] in
  List.iter
    (fun (o : Obj_model.t) ->
      if geometry_ok o then
        if is_los o then
          List.iter
            (fun b ->
              let s = Addr.block_start cfg b in
              intervals := (s, s + cfg.block_bytes, o.id) :: !intervals)
            (Heap.los_extent heap o)
        else begin
          let a = Obj_model.addr o in
          intervals := (a, a + o.size, o.id) :: !intervals
        end)
    live_objs;
  let arr = Array.of_list !intervals in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) arr;
  for i = 0 to Array.length arr - 2 do
    let s1, e1, id1 = arr.(i) in
    let s2, _, id2 = arr.(i + 1) in
    if s2 < e1 then
      v ~module_:"registry" ~invariant:"no-overlap"
        ~subject:(Printf.sprintf "objects %d and %d" id1 id2)
        ~expected:"disjoint extents"
        ~found:(Printf.sprintf "[%d,%d) overlaps [%d,...)" s1 e1 s2)
  done;

  (* --- Block states vs the RC table and the free/recyclable lists.
     The lists themselves are stale-tolerant (entries are revalidated on
     acquisition), so only the forward direction is an invariant: a block
     the state table calls Free/Recyclable must be findable by the
     allocator. --- *)
  let in_free = Hashtbl.create 64 in
  let in_recyclable = Hashtbl.create 64 in
  Free_lists.iter_free heap.free (fun b -> Hashtbl.replace in_free b ());
  Free_lists.iter_recyclable heap.free (fun b ->
      Hashtbl.replace in_recyclable b ());
  for b = 0 to Heap_config.blocks cfg - 1 do
    match Blocks.state heap.blocks b with
    | Blocks.Free ->
      if not (Rc_table.block_is_free heap.rc cfg b) then
        v ~module_:"blocks" ~invariant:"free-block-rc-zero"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"all RC entries zero"
          ~found:
            (Printf.sprintf "%d live granules"
               (Rc_table.live_granules_in_block heap.rc cfg b));
      if not (Hashtbl.mem in_free b) then
        v ~module_:"free_lists" ~invariant:"free-block-listed"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"present on the free list" ~found:"absent"
    | Blocks.Recyclable ->
      (* Allocators drop recyclable blocks that are evacuation targets
         from the list (they must not be allocated into); the sweep
         re-lists them once the target flag clears. *)
      if
        (not (Hashtbl.mem in_recyclable b)) && not (Blocks.target heap.blocks b)
      then
        v ~module_:"free_lists" ~invariant:"recyclable-block-listed"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"present on the recyclable list" ~found:"absent"
    | Blocks.Owned | Blocks.In_use | Blocks.Los_backing -> ()
  done;

  (* --- To-space reserve: a block still held in reserve (state In_use)
     must be completely empty. Entries whose state changed are blocks a
     sweep dissolved back into circulation; ensure_reserve drops them, so
     they are stale rather than corrupt. --- *)
  Vec.iter
    (fun b ->
      if Blocks.state heap.blocks b = Blocks.In_use then begin
        if not (Rc_table.block_is_free heap.rc cfg b) then
          v ~module_:"reserve" ~invariant:"reserve-block-empty"
            ~subject:(Printf.sprintf "reserve block %d" b)
            ~expected:"all RC entries zero"
            ~found:
              (Printf.sprintf "%d live granules"
                 (Rc_table.live_granules_in_block heap.rc cfg b));
        let resident_live id =
          let o = Obj_model.Registry.find_live heap.registry id in
          (not (Obj_model.is_freed o))
          && (not (is_los o))
          && Addr.block_of cfg (Obj_model.addr o) = b
        in
        if Vec.exists resident_live (Blocks.residents heap.blocks b) then
          v ~module_:"reserve" ~invariant:"reserve-no-residents"
            ~subject:(Printf.sprintf "reserve block %d" b)
            ~expected:"no live resident objects" ~found:"live resident"
      end)
    heap.reserve;
  (* The membership bytes behind the O(1) [Heap.in_reserve] are a second
     view of the reserve stack: both must agree for every block. *)
  let on_stack = Bytes.make (Heap_config.blocks cfg) '\000' in
  Vec.iter (fun b -> Bytes.set on_stack b '\001') heap.reserve;
  for b = 0 to Heap_config.blocks cfg - 1 do
    let listed = Bytes.get on_stack b <> '\000' in
    if listed <> Heap.in_reserve heap b then
      v ~module_:"reserve" ~invariant:"reserve-membership"
        ~subject:(Printf.sprintf "block %d" b)
        ~expected:(if listed then "member (on the reserve stack)" else "not a member")
        ~found:(if listed then "membership byte clear" else "membership byte set")
  done;

  (* --- RC table vs the registry: every non-zero entry must be an object
     header or a straddle-line marker; straddle markers hold the stuck
     value. Markers of dead objects awaiting sweep are legal, so the
     expectation is keyed on registration, not on the header count. --- *)
  let expected_rc : (int, [ `Header | `Straddle of Obj_model.t ]) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun (o : Obj_model.t) ->
      if geometry_ok o then begin
        let oaddr = Obj_model.addr o in
        Hashtbl.replace expected_rc (Addr.granule_of cfg oaddr) `Header;
        if (not (is_los o)) && o.size > cfg.line_bytes then begin
          let first, last = Addr.lines_covered cfg ~addr:oaddr ~size:o.size in
          for l = first + 1 to last - 1 do
            let g = Addr.granule_of cfg (Addr.line_start cfg l) in
            if not (Hashtbl.mem expected_rc g) then
              Hashtbl.replace expected_rc g (`Straddle o)
          done
        end
      end)
    live_objs;
  Rc_table.iter_nonzero heap.rc cfg (fun ~granule ~count ->
      match Hashtbl.find_opt expected_rc granule with
      | Some `Header -> ()
      | Some (`Straddle o) ->
        if count <> stuck then
          v ~module_:"rc" ~invariant:"straddle-marker-value"
            ~subject:
              (Printf.sprintf "granule %d (straddle line of %s)" granule
                 (describe o))
            ~expected:(string_of_int stuck) ~found:(string_of_int count)
      | None ->
        v ~module_:"rc" ~invariant:"orphan-count"
          ~subject:
            (Printf.sprintf "granule %d (addr %d)" granule
               (Addr.granule_start cfg granule))
          ~expected:"0 (no object header or straddle line here)"
          ~found:(string_of_int count));

  (* Straddle markers present wherever a counted object demands them. *)
  List.iter
    (fun (o : Obj_model.t) ->
      if
        geometry_ok o
        && (not (is_los o))
        && o.size > cfg.line_bytes
        && Rc_table.get heap.rc cfg (Obj_model.addr o) > 0
      then begin
        let first, last =
          Addr.lines_covered cfg ~addr:(Obj_model.addr o) ~size:o.size
        in
        for l = first + 1 to last - 1 do
          if Rc_table.get heap.rc cfg (Addr.line_start cfg l) = 0 then
            v ~module_:"rc" ~invariant:"straddle-marker-missing"
              ~subject:(Printf.sprintf "%s, line %d" (describe o) l)
              ~expected:(Printf.sprintf "marker %d at line start" stuck)
              ~found:"0"
        done
      end)
    live_objs;

  (* --- Count discipline. --- *)
  (match introspect.Collector.rc_discipline with
  | Collector.Pinned_rc ->
    (* Tracing collectors pin every object at allocation; any other
       header value means the shared line-liveness metadata is lying to
       the allocator. *)
    List.iter
      (fun (o : Obj_model.t) ->
        if geometry_ok o then begin
          let c = Rc_table.get heap.rc cfg (Obj_model.addr o) in
          if c <> stuck then
            v ~module_:"rc" ~invariant:"pinned-header" ~subject:(describe o)
              ~expected:(string_of_int stuck) ~found:(string_of_int c)
        end)
      live_objs
  | Collector.Exact_rc ->
    if introspect.Collector.counts_exact () then begin
      (* Deferred RC soundness: a header count can never exceed the
         evidence for it — in-heap references, roots, and references
         queued in the collector's buffers (incs not yet applied, decs
         pending). One-sided: undercounts are legal (young objects sit
         at zero until their first pause). *)
      let evidence = Hashtbl.create 1024 in
      let bump id =
        Hashtbl.replace evidence id
          (1 + Option.value ~default:0 (Hashtbl.find_opt evidence id))
      in
      List.iter
        (fun (o : Obj_model.t) ->
          Obj_model.iter_fields (fun r -> if r <> Obj_model.null then bump r) o)
        live_objs;
      Array.iter (fun r -> if r <> Obj_model.null then bump r) roots;
      List.iter bump (introspect.Collector.pending_ref_ids ());
      List.iter
        (fun (o : Obj_model.t) ->
          if geometry_ok o then begin
            let c = Rc_table.get heap.rc cfg (Obj_model.addr o) in
            if c > 0 && c < stuck then begin
              let e =
                Option.value ~default:0 (Hashtbl.find_opt evidence o.id)
              in
              if c > e then
                v ~module_:"rc" ~invariant:"overcount" ~subject:(describe o)
                  ~expected:
                    (Printf.sprintf "count <= %d incoming references" e)
                  ~found:(string_of_int c)
            end
          end)
        live_objs
    end);

  (* --- Mark bitset must be empty between traces. --- *)
  if introspect.Collector.expect_clear_marks () then begin
    let marked = ref 0 in
    let first = ref (-1) in
    Mark_bitset.iter_marked heap.marks (fun id ->
        incr marked;
        if !first < 0 then first := id);
    if !marked > 0 then
      v ~module_:"marks" ~invariant:"clear-between-traces"
        ~subject:"shared mark bitset" ~expected:"no marked ids"
        ~found:(Printf.sprintf "%d marked (first id %d)" !marked !first)
  end;

  (* --- Per-line reuse counters never go negative. --- *)
  let bad_reuse = ref 0 in
  for l = 0 to Heap_config.total_lines cfg - 1 do
    if Reuse_table.get heap.reuse l < 0 then incr bad_reuse
  done;
  if !bad_reuse > 0 then
    v ~module_:"reuse" ~invariant:"counter-non-negative"
      ~subject:"line reuse counters" ~expected:"all >= 0"
      ~found:(Printf.sprintf "%d negative" !bad_reuse);

  (* --- Remembered sets: an entry for a live source must name one of its
     fields. Entries whose source has died are staleness the consumer
     filters, not corruption. --- *)
  List.iter
    (fun (src, field) ->
      let o = Obj_model.Registry.find_live heap.registry src in
      if (not (Obj_model.is_freed o))
         && (field < 0 || field >= Obj_model.nfields o)
      then
        v ~module_:"remset" ~invariant:"field-in-range"
          ~subject:(Printf.sprintf "entry (%d, %d)" src field)
          ~expected:
            (Printf.sprintf "0 <= field < %d (nfields of object %d)"
               (Obj_model.nfields o) src)
          ~found:(string_of_int field))
    (introspect.Collector.remset_entries ());

  (* --- Reachability oracle: nothing reachable from the roots may have
     been freed. The BFS runs over the registry alone, independent of any
     collector metadata. --- *)
  let root_ids =
    Array.fold_left
      (fun acc r -> if r <> Obj_model.null then r :: acc else acc)
      [] roots
  in
  List.iter
    (fun id ->
      if not (Obj_model.Registry.mem heap.registry id) then
        v ~module_:"reachability" ~invariant:"root-live"
          ~subject:(Printf.sprintf "root slot -> id %d" id)
          ~expected:"a registered object" ~found:"freed or unknown id")
    root_ids;
  let reach = Obj_model.Registry.reachable_from heap.registry root_ids in
  (* [reachable_from] marks registered ids only. *)
  Mark_bitset.iter_marked reach (fun id ->
      Obj_model.iteri_fields
        (fun i r ->
          if r <> Obj_model.null && not (Obj_model.Registry.mem heap.registry r)
          then
            v ~module_:"reachability" ~invariant:"no-dangling-ref"
              ~subject:(Printf.sprintf "object %d field %d -> id %d" id i r)
              ~expected:"reachable referent registered"
              ~found:"freed or unknown id")
        (Obj_model.Registry.find_live heap.registry id));

  List.rev !out

(* --- Safepoint sessions. --- *)

type t = {
  api : Api.t;
  points : safepoint list;
  max_violations : int;
  mutable retained : (safepoint * string * violation) list;  (* reversed *)
  mutable total : int;
  mutable checks : int;
}

let run_check t point label =
  t.checks <- t.checks + 1;
  let api = t.api in
  let vs =
    check_heap ~roots:(Api.roots api)
      ~introspect:(Api.collector api).Collector.introspect (Api.heap api)
  in
  List.iter
    (fun viol ->
      t.total <- t.total + 1;
      if t.total <= t.max_violations then
        t.retained <- (point, label, viol) :: t.retained)
    vs

let attach ?(max_violations = 50) ~points api =
  let t = { api; points; max_violations; retained = []; total = 0; checks = 0 } in
  if List.mem Pre_pause points then
    (Api.heap api).Heap.on_pre_pause <- (fun () -> run_check t Pre_pause "pause");
  if List.mem Post_pause points then
    Sim.set_on_pause_end (Api.sim api) (fun label ->
        run_check t Post_pause label);
  t

let finish t = if List.mem End_of_run t.points then run_check t End_of_run "finish"
let violations t = List.rev t.retained
let total_violations t = t.total
let checks_run t = t.checks
let ok t = t.total = 0

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "verifier: %d checks, %d violations%s\n" t.checks t.total
       (if t.total > t.max_violations then
          Printf.sprintf " (%d shown)" t.max_violations
        else ""));
  List.iter
    (fun (point, label, viol) ->
      Buffer.add_string b
        (Printf.sprintf "  [%s:%s] %s\n" (safepoint_name point) label
           (violation_to_string viol)))
    (violations t);
  Buffer.contents b
