(* Deterministic fault injection (see DESIGN.md "Verification & fault
   injection"). All probability draws flow through one seeded SplitMix64
   stream, so a given (spec, seed) pair corrupts the same operations on
   every run. *)

type fault_class = Drop_barrier | Skip_decrement | Flip_rc | Corrupt_remset | Fail_alloc

(* The one table of classes: (class, --inject spec name, counter name),
   in the order [counts_alist] reports them. *)
let table =
  [| (Drop_barrier, "drop-barrier", "fault_dropped_barriers");
     (Skip_decrement, "skip-dec", "fault_skipped_decrements");
     (Flip_rc, "rc-flip", "fault_flipped_rc");
     (Corrupt_remset, "remset", "fault_corrupted_remsets");
     (Fail_alloc, "alloc-fail", "fault_forced_alloc_failures") |]

(* [rates.(i)] and [counts.(i)] belong to [table.(i)]. *)
type t = { prng : Repro_util.Prng.t; rates : float array; counts : int array }

let create ~seed rates =
  { prng = Repro_util.Prng.create (seed lxor 0x6661756c74);
    rates;
    counts = Array.make (Array.length table) 0 }

let none = create ~seed:0 (Array.make (Array.length table) 0.0)

(* Physical equality: fault sites test [active] before [fires], so a run
   without injection pays one pointer compare. *)
let active t = t != none

let slot cls =
  let rec find i =
    let c, _, _ = table.(i) in
    if c = cls then i else find (i + 1)
  in
  find 0

(* A class at rate 0 draws nothing: its sites leave the stream alone. *)
let fires t cls =
  let i = slot cls in
  let rate = t.rates.(i) in
  if rate <= 0.0 then false
  else begin
    let hit = Repro_util.Prng.bool t.prng rate in
    if hit then t.counts.(i) <- t.counts.(i) + 1;
    hit
  end

let count t cls = t.counts.(slot cls)

let counts_alist t =
  Array.to_list
    (Array.mapi (fun i (_, _, counter) -> (counter, Float.of_int t.counts.(i))) table)

let class_names = Array.to_list (Array.map (fun (_, name, _) -> name) table)

(* Spec syntax: "class:rate[,class:rate...]", e.g.
   "drop-barrier:1e-4,rc-flip:0.01"; a class given twice keeps its last
   rate. *)
let of_spec ~seed spec =
  let module Spec = Repro_util.Spec in
  let slots = List.mapi (fun i name -> (name, i)) class_names in
  let parse_item rates item =
    match Spec.kv ~sep:':' item with
    | None ->
      Spec.malformed ~what:"fault spec" ~form:"class:rate" ~known:class_names item
    | Some (name, rate) ->
      Result.bind (Spec.choose ~what:"fault class" slots name) (fun i ->
          Result.map
            (fun r ->
              rates.(i) <- r;
              rates)
            (Spec.float_in ~what:name ~lo:0.0 ~hi:1.0 rate))
  in
  Result.map (create ~seed)
    (Spec.fold_items ~f:parse_item (Array.make (Array.length table) 0.0) spec)
