(** Trace-capture hooks: the tee between the engine and [lib/trace].

    A tracer is a record of closures invoked at every mutator-observable
    event — the same zero-cost-when-off pattern as {!Fault}: hook sites
    test {!active} (one physical-equality compare against {!none}) before
    touching any closure, so an untraced run pays a pointer compare per
    operation and nothing else.

    The engine ({!Api}) emits the heap-level events (allocation, pointer
    store/load, root writes, compute, safepoints, finish); the generative
    mutator emits the workload-level markers (request boundaries,
    measurement start, survival accounting) that a replayer needs to
    reconstruct {!Repro_mutator.Mut_engine.output} without the generative
    logic in the loop. Objects are identified by registry id — ids are
    assigned in allocation order and survive evacuation, which is what
    makes a recorded stream collector-independent. *)

type t = {
  alloc : id:int -> size:int -> nfields:int -> large:bool -> unit;
      (** a successful allocation; [size] is the requested (pre-alignment)
          size and [large] its large-object classification *)
  alloc_failed : size:int -> nfields:int -> unit;
      (** {!Api.alloc_fast} exhausted the degradation ladder *)
  write : src:int -> field:int -> value:int -> unit;
      (** pointer store, before the barrier and the store itself *)
  read : src:int -> field:int -> unit;  (** pointer load *)
  root : slot:int -> value:int -> unit;
      (** root registration ([value <> null]) or release ([value = null]) *)
  work : ns:float -> unit;  (** pure application compute *)
  safepoint : unit -> unit;  (** an explicit mutator safepoint poll *)
  request_start : gap:float -> unit;
      (** request boundary: the exponential inter-arrival gap, ns. The
          gap — not the absolute arrival time — is recorded because the
          metered schedule is rebased on the simulator clock at
          measurement start, which depends on how long the collector took
          during setup; the gap sequence is the collector-independent
          content. *)
  request_end : unit -> unit;
  measurement_start : unit -> unit;
      (** warmup/setup ended; accumulators reset beyond this point *)
  survived : bytes:int -> unit;
      (** the mutator counted [bytes] into its survived-bytes total *)
  finish : unit -> unit;  (** end of run *)
}

(** The inert tracer: every hook is a no-op. *)
val none : t

(** [active t] is true iff [t] is not {!none} (physical equality). *)
val active : t -> bool
