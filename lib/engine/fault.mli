(** Deterministic, seeded fault injection.

    An injector decides, at each corruption site wired through {!Api},
    {!Sim} and the collectors, whether a fault of that site's class
    fires:

    - [Drop_barrier]: {!Api.write} skips the collector's write barrier
      (the store still happens) — models a lost coalescing-log entry.
    - [Skip_decrement]: LXR and Journal-RC discard a queued
      reference-count decrement.
    - [Flip_rc]: {!Api.write} perturbs one RC-table entry of the written
      object (a body granule when it has one, else the header).
    - [Corrupt_remset]: LXR and Journal-RC record a remembered-set entry
      with an out-of-range field index.
    - [Fail_alloc]: {!Api.alloc_fast} treats a first allocation attempt as
      heap-full, forcing the degradation ladder to run.

    Sites guard every {!fires} with {!active}, so the default {!none}
    injector costs one physical-equality test per site. *)

type fault_class = Drop_barrier | Skip_decrement | Flip_rc | Corrupt_remset | Fail_alloc

type t

(** The no-faults injector; nothing fires and nothing is drawn. *)
val none : t

(** [active t] is [t != none] — the zero-cost-when-off guard. *)
val active : t -> bool

(** [fires t cls] draws whether a fault of class [cls] fires here, and
    counts it when it does. A class at rate 0 draws nothing from the
    injector's one seeded stream. *)
val fires : t -> fault_class -> bool

(** How many faults of class [cls] have fired. *)
val count : t -> fault_class -> int

(** Fired-fault counters as stats-style pairs ([fault_dropped_barriers],
    ...), one per class. *)
val counts_alist : t -> (string * float) list

(** Recognized spec classes: drop-barrier, skip-dec, rc-flip, remset,
    alloc-fail. *)
val class_names : string list

(** [of_spec ~seed "drop-barrier:1e-4,rc-flip:0.01"] parses a CLI spec;
    a class given twice keeps its last rate. Equal seeds and specs give
    identical fault streams. *)
val of_spec : seed:int -> string -> (t, string) result
