(** Trace capture: the tee between the engine and [lib/trace].

    A tracer is a sink for one typed event per mutator-observable
    operation — the same zero-cost-when-off pattern as {!Fault}: emit
    sites test {!active} (one physical-equality compare against {!none})
    before building an event, so an untraced run pays a pointer compare
    per operation and allocates nothing.

    The engine ({!Api}) emits the heap-level events (allocation, pointer
    store/load, root writes, compute, safepoints, finish); the generative
    mutator emits the workload-level markers (request boundaries,
    measurement start, survival accounting) that a replayer needs to
    reconstruct {!Repro_mutator.Mut_engine.output} without the generative
    logic in the loop. Objects are identified by registry id — ids are
    assigned in allocation order and survive evacuation, which is what
    makes a recorded stream collector-independent. *)

type event =
  | Alloc of { id : int; size : int; nfields : int; large : bool }
      (** a successful allocation; [size] is the requested (pre-alignment)
          size and [large] its large-object classification *)
  | Alloc_failed of { size : int; nfields : int }
      (** {!Api.alloc_fast} exhausted the degradation ladder *)
  | Write of { src : int; field : int; value : int }
      (** pointer store, before the barrier and the store itself *)
  | Read of { src : int; field : int }  (** pointer load *)
  | Root of { slot : int; value : int }
      (** root registration ([value <> null]) or release ([value = null]) *)
  | Work of { ns : float }  (** pure application compute *)
  | Safepoint  (** an explicit mutator safepoint poll *)
  | Request_start of { gap : float }
      (** request boundary: the exponential inter-arrival gap, ns. The
          gap — not the absolute arrival time — is recorded because the
          metered schedule is rebased on the simulator clock at
          measurement start, which depends on how long the collector took
          during setup; the gap sequence is the collector-independent
          content. *)
  | Request_end
  | Measurement_start
      (** warmup/setup ended; accumulators reset beyond this point *)
  | Survived of { bytes : int }
      (** the mutator counted [bytes] into its survived-bytes total *)
  | Finish  (** end of run *)

(** The sink installed with {!Sim.set_tracer}. *)
type t = event -> unit

(** The inert tracer: drops every event. *)
val none : t

(** [active t] is true iff [t] is not {!none} (physical equality). *)
val active : t -> bool

(** The event's kebab-case name ([alloc], [alloc-failed], [write], ...),
    as [lxr_trace stat] prints it. *)
val name : event -> string
