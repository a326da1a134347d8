(** The interface every garbage collector implements.

    A collector is a record of closures over its own state, created from
    a {!Sim.t} and a heap by a {!factory}. The engine calls [on_write]
    before each reference store (the write barrier observes the
    to-be-overwritten value), charges [read_extra_ns]/[write_extra_ns] on
    each load/store (barrier fast paths), polls at safepoints, and drives
    concurrent work through [conc_active]/[conc_run]. *)

(** Raised by a factory that refuses the heap it is given (ZGC below
    its minimum heap, §4). Front ends report it as a failed run, or as a
    skipped lane in a differential replay. *)
exception Unsupported of string

(** Rungs of the allocation-failure degradation ladder, in escalation
    order. {!Api.alloc_fast} climbs them one at a time, retrying the
    allocation after each:

    - [Young]: the collector's cheapest space-recovering collection
      (an RC pause, a young evacuation, a routine STW collection — or,
      for fully concurrent collectors, stalling on cycle progress).
    - [Full]: a complete collection — force the backup trace / marking
      cycle through reclamation so all garbage, cyclic included, goes.
    - [Emergency]: last-ditch defragmentation — release the to-space
      reserve and slide-compact so even whole-block (large-object)
      requests can be satisfied. *)
type pressure = Young | Full | Emergency

val pressure_name : pressure -> string

(** How the collector uses the shared RC table: [Exact_rc] maintains true
    deferred reference counts (LXR); [Pinned_rc] pins every live object's
    header at the stuck count and uses the table only for line liveness
    (all tracing collectors). The verifier selects its count checks
    accordingly. *)
type rc_discipline = Exact_rc | Pinned_rc

(** Read-only introspection the integrity verifier needs from a
    collector. All closures must be side-effect free. *)
type introspection = {
  rc_discipline : rc_discipline;
  counts_exact : unit -> bool;
      (** [Exact_rc] only: true while every header count is bounded by
          the incoming references recomputable from the heap plus the
          pending work in [pending_ref_ids]. Trace-based reclamation
          (which frees parents without decrementing their children)
          breaks the bound permanently, so LXR reports [true] only until
          the first completed SATB trace; the verifier's overcount check
          is gated on it. *)
  pending_ref_ids : unit -> int list;
      (** ids with queued RC work (decrement buffers, previous-epoch
          roots, snapshot before-images): their reference counts may
          legitimately exceed the in-heap evidence until the next pause *)
  remset_entries : unit -> (int * int) list;
      (** live remembered-set entries as [(src id, field index)] pairs *)
  trace_active : unit -> bool;  (** a marking cycle is underway *)
  expect_clear_marks : unit -> bool;
      (** the shared mark bitset must be empty right now (e.g. LXR
          between SATB cycles); [false] when no such guarantee holds *)
}

(** Safe defaults: pinned discipline, no pending work, no remsets, no
    mark guarantee. *)
val no_introspection : introspection

type t = {
  name : string;
  on_alloc : Repro_heap.Obj_model.t -> unit;
      (** post-allocation hook (e.g. SATB allocation colouring) *)
  on_write : Repro_heap.Obj_model.t -> int -> int -> unit;
      (** [on_write src field new_ref] runs before the store; the old
          value is still in [src.fields.(field)] *)
  write_extra_ns : float;  (** barrier fast-path cost per reference store *)
  read_extra_ns : float;  (** read barrier cost per reference load *)
  poll : unit -> unit;  (** safepoint: check triggers, maybe pause *)
  collect_for_alloc : pressure -> unit;
      (** allocation failed; run the collection for this ladder rung.
          {!Api.alloc_fast} retries the allocation afterwards and
          escalates to the next rung if it still fails *)
  conc_active : unit -> int;  (** concurrent GC threads currently wanting CPU *)
  conc_run : budget_ns:float -> float;  (** run concurrent work, return consumed *)
  conc_backlog : unit -> int;
      (** outstanding deferred-reclamation work items (journal records,
          queued decrements, dirty buffers) awaiting the concurrent
          drain; [0] for collectors with no such queue. Surfaced through
          {!Api.gc_signal} so a serving tier can route around replicas
          whose drain has fallen behind the mutator. *)
  on_finish : unit -> unit;  (** end of run: final bookkeeping *)
  stats : unit -> (string * float) list;  (** collector-specific counters *)
  introspect : introspection;  (** verifier hooks *)
}

type factory = Sim.t -> Repro_heap.Heap.t -> roots:int array -> t

(** A collector with no concurrency — helper for building records. *)
val no_concurrency : unit -> (unit -> int) * (budget_ns:float -> float)
