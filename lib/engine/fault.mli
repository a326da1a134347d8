(** Deterministic, seeded fault injection.

    A fault record is a set of decision closures consulted at the
    corruption sites wired through {!Api}, {!Sim} and the collectors:

    - [drop_barrier]: {!Api.write} skips the collector's write barrier
      (the store still happens) — models a lost coalescing-log entry.
    - [skip_decrement]: LXR discards a queued reference-count decrement.
    - [flip_rc]: {!Api.write} perturbs one RC-table entry of the written
      object (a body granule when it has one, else the header).
    - [corrupt_remset]: LXR records a remembered-set entry with an
      out-of-range field index.
    - [fail_alloc]: {!Api.alloc_fast} treats a first allocation attempt as
      heap-full, forcing the degradation ladder to run.

    Each closure returns [true] when the fault fires (already counted in
    [counts]). Sites guard every consultation with {!active}, so the
    default {!none} record costs one physical-equality test per site. *)

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

(** The no-faults record; every draw is [false] with no PRNG work. *)
val none : t

(** [active t] is [t != none] — the zero-cost-when-off guard. *)
val active : t -> bool

(** [create ~seed ()] builds an injector with the given per-site
    probabilities (all default 0). Equal seeds and rates give identical
    fault streams. *)
val create :
  ?drop_barrier:float ->
  ?skip_decrement:float ->
  ?flip_rc:float ->
  ?corrupt_remset:float ->
  ?fail_alloc:float ->
  seed:int ->
  unit ->
  t

(** Fired-fault counters as stats-style pairs. *)
val counts_alist : t -> (string * float) list

(** Recognized spec classes: drop-barrier, skip-dec, rc-flip, remset,
    alloc-fail. *)
val class_names : string list

(** [of_spec ~seed "drop-barrier:1e-4,rc-flip:0.01"] parses a CLI spec. *)
val of_spec : seed:int -> string -> (t, string) result
