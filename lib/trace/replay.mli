(** Trace replayer: drives a collector from a recorded event stream with
    no generative mutator in the loop.

    Recorded object ids are mapped to the replay run's registry ids as
    allocations are re-executed (under the same collector the two id
    spaces coincide, but the map makes replay collector-agnostic), and
    every recorded operation is re-issued through {!Repro_engine.Api} so
    barriers, safepoints, cost charging, and concurrent GC progress all
    happen exactly as they would under the generative mutator. Replaying
    a trace under the collector and seed it was recorded from therefore
    reproduces the live run's metrics bit for bit — and replaying it
    under a different collector shows what that collector would have done
    with the *identical* mutator work, which is the property
    cross-collector comparison needs.

    If an allocation that succeeded during recording exhausts the
    degradation ladder during replay (e.g. a trace recorded at 3x heap
    replayed through a semispace collector), the replayer halts at that
    event, reports the OOM in its output, and finishes the collector —
    mirroring what the generative mutator does. *)

exception Error of string
(** Raised on traces that reference unknown object ids or otherwise
    cannot be applied (should only happen for hand-corrupted streams —
    {!Trace_format.of_string} already rejects damaged files). *)

type t

(** [create ?on_measurement_start api trace] prepares a step-wise replay
    session. [on_measurement_start] fires when the measurement-start
    marker is replayed (the harness resets its accumulators there, as in
    the live run). *)
val create :
  ?on_measurement_start:(unit -> unit) -> Repro_engine.Api.t -> Trace_format.t -> t

(** [step t] applies the next event; [false] when the stream is done
    (or the replay halted on OOM). *)
val step : t -> bool

(** Index of the next event to apply (= number applied so far). *)
val event_index : t -> int

(** The replay halted early because an allocation that succeeded during
    recording exhausted the ladder here. *)
val halted : t -> bool

val oom : t -> Repro_engine.Api.oom_info option

(** [recorded_id t ~replay_id] translates a registry id of this replay
    run back to the recorded id space — how the differential driver
    compares live sets across collectors. [None] for ids the trace never
    allocated. *)
val recorded_id : t -> replay_id:int -> int option

(** Output in {!Repro_mutator.Mut_engine.output} form, valid once
    stepping is complete; mirrors the generative mutator's reporting
    (OOM runs report no latency and partial counters). *)
val output : t -> Repro_mutator.Mut_engine.output

(** [run ?on_measurement_start api trace] steps the whole trace and
    returns the output. It drives the same dispatch as {!step}, with no
    per-event [step] call. *)
val run :
  ?on_measurement_start:(unit -> unit) ->
  Repro_engine.Api.t ->
  Trace_format.t ->
  Repro_mutator.Mut_engine.output
