(** Streaming trace recorder.

    A {!Trace_format} encoder behind a {!Repro_engine.Tracer.t} sink, so
    the engine and mutator can tee their event stream into it. Events are
    encoded directly into a growing buffer as they arrive — nothing is
    retained per event — and {!contents} (or {!save}) appends the trailer
    and yields the finished trace.

    Recording is observationally free: the sink only appends bytes, so a
    recorded run produces bit-identical metrics to an unrecorded one. *)

type t

(** [create ~workload ~seed ~scale ~heap_factor ~cfg ()] starts a
    recording. The collector name is informational and usually not known
    until the engine is built; set it with {!set_collector} any time
    before finishing. *)
val create :
  ?collector:string ->
  workload:string ->
  seed:int ->
  scale:float ->
  heap_factor:float ->
  cfg:Repro_heap.Heap_config.t ->
  unit ->
  t

(** The sink to install via {!Repro_engine.Sim.set_tracer}: it encodes
    each event as it arrives. *)
val tracer : t -> Repro_engine.Tracer.t

val set_collector : t -> string -> unit

(** [contents t] assembles the complete serialized trace (header, events
    so far, trailer). The recorder may continue to accept events; a later
    [contents] re-assembles with the longer stream. *)
val contents : t -> string

(** [save t path] writes {!contents} to [path]. *)
val save : t -> string -> unit
