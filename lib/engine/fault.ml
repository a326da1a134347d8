(* Deterministic fault injection (see DESIGN.md "Verification & fault
   injection"). All probability draws flow through one seeded SplitMix64
   stream, so a given (spec, seed) pair corrupts the same operations on
   every run. *)

type counts = {
  mutable dropped_barriers : int;
  mutable skipped_decrements : int;
  mutable flipped_rc : int;
  mutable corrupted_remsets : int;
  mutable forced_alloc_failures : int;
}

type t = {
  drop_barrier : unit -> bool;
  skip_decrement : unit -> bool;
  flip_rc : unit -> bool;
  corrupt_remset : unit -> bool;
  fail_alloc : unit -> bool;
  counts : counts;
}

let fresh_counts () =
  { dropped_barriers = 0;
    skipped_decrements = 0;
    flipped_rc = 0;
    corrupted_remsets = 0;
    forced_alloc_failures = 0 }

let no = fun () -> false

let none =
  { drop_barrier = no;
    skip_decrement = no;
    flip_rc = no;
    corrupt_remset = no;
    fail_alloc = no;
    counts = fresh_counts () }

(* Physical equality: hook sites test [active] before touching any
   closure, so a run without injection pays one pointer compare. *)
let active t = t != none

let create ?(drop_barrier = 0.0) ?(skip_decrement = 0.0) ?(flip_rc = 0.0)
    ?(corrupt_remset = 0.0) ?(fail_alloc = 0.0) ~seed () =
  let prng = Repro_util.Prng.create (seed lxor 0x6661756c74) in
  let counts = fresh_counts () in
  let draw rate bump =
    if rate <= 0.0 then no
    else
      fun () ->
        let hit = Repro_util.Prng.bool prng rate in
        if hit then bump ();
        hit
  in
  { drop_barrier =
      draw drop_barrier (fun () ->
          counts.dropped_barriers <- counts.dropped_barriers + 1);
    skip_decrement =
      draw skip_decrement (fun () ->
          counts.skipped_decrements <- counts.skipped_decrements + 1);
    flip_rc = draw flip_rc (fun () -> counts.flipped_rc <- counts.flipped_rc + 1);
    corrupt_remset =
      draw corrupt_remset (fun () ->
          counts.corrupted_remsets <- counts.corrupted_remsets + 1);
    fail_alloc =
      draw fail_alloc (fun () ->
          counts.forced_alloc_failures <- counts.forced_alloc_failures + 1);
    counts }

let counts_alist t =
  [ ("fault_dropped_barriers", Float.of_int t.counts.dropped_barriers);
    ("fault_skipped_decrements", Float.of_int t.counts.skipped_decrements);
    ("fault_flipped_rc", Float.of_int t.counts.flipped_rc);
    ("fault_corrupted_remsets", Float.of_int t.counts.corrupted_remsets);
    ("fault_forced_alloc_failures", Float.of_int t.counts.forced_alloc_failures) ]

(* Spec syntax: "class:rate[,class:rate...]", e.g.
   "drop-barrier:1e-4,rc-flip:0.01". *)
let class_names =
  [ "drop-barrier"; "skip-dec"; "rc-flip"; "remset"; "alloc-fail" ]

let of_spec ~seed spec =
  let module Spec = Repro_util.Spec in
  let classes = List.map (fun c -> (c, c)) class_names in
  let parse_item rates item =
    match Spec.kv ~sep:':' item with
    | None ->
      Spec.malformed ~what:"fault spec" ~form:"class:rate" ~known:class_names item
    | Some (cls, rate) ->
      Result.bind (Spec.choose ~what:"fault class" classes cls) (fun cls ->
          Result.map
            (fun r -> (cls, r) :: rates)
            (Spec.float_in ~what:cls ~lo:0.0 ~hi:1.0 rate))
  in
  match Spec.fold_items ~f:parse_item [] spec with
  | Error _ as e -> e
  | Ok rates ->
    let rate cls = try List.assoc cls rates with Not_found -> 0.0 in
    Ok
      (create ~drop_barrier:(rate "drop-barrier") ~skip_decrement:(rate "skip-dec")
         ~flip_rc:(rate "rc-flip") ~corrupt_remset:(rate "remset")
         ~fail_alloc:(rate "alloc-fail") ~seed ())
