(** The versioned binary trace format (see DESIGN.md "Trace capture &
    replay").

    A trace is the complete mutator-observable event stream of one run:
    every allocation (requested size, field count, large-object flag,
    resulting registry id), pointer store and load, root
    registration/release, explicit safepoint, unit of application
    compute, request boundary, measurement-start marker, survived-byte
    annotation, allocation failure, and the final finish marker — in
    program order. Because objects are named by registry id (assigned in
    allocation order, stable across evacuation), the stream contains no
    collector-dependent state: the same trace replays faithfully under
    any registered collector.

    Layout: an 8-byte magic, a varint format version, a self-describing
    header (workload identity, seed, scale, and the full heap geometry
    needed to reconstruct an identical {!Repro_heap.Heap_config.t}), the
    event stream as tag-prefixed records with LEB128 varints and raw
    IEEE-754 doubles, and a trailer carrying the event count and an
    FNV-1a checksum of everything before it. *)

type header = {
  version : int;
  workload : string;  (** benchmark name the trace was recorded from *)
  collector : string;  (** collector it was recorded under (informational) *)
  seed : int;
  scale : float;
  heap_factor : float;
  (* Heap geometry: enough to rebuild the exact Heap_config. *)
  heap_bytes : int;
  block_bytes : int;
  line_bytes : int;
  granule_bytes : int;
  rc_bits : int;
  los_threshold : int;
  free_buffer_entries : int;
}

(** The engine's trace event, one per mutator-observable operation; the
    encoding gives each constructor its own tag, 1-12. *)
type event = Repro_engine.Tracer.event

(* The in-memory representation: a flat struct-of-arrays ring — one
   dense tag byte per event plus parallel operand arrays, batch-decoded
   once at load. The replay inner loop dispatches on [tags] and reads
   operands directly; the boxed {!event} variant is only a view
   ({!event}/{!events}). Operand packing per tag (unused slots are
   0 / 0.0):
     alloc:         op1 = id, op2 = size, op3 = nfields lsl 1 lor large
     alloc_failed:  op1 = size, op2 = nfields
     write:         op1 = src, op2 = field, op3 = value
     read:          op1 = src, op2 = field
     root:          op1 = slot, op2 = value
     work:          fop = ns
     request_start: fop = gap
     survived:      op1 = bytes *)
type ring = private {
  count : int;
  tags : Bytes.t;
  op1 : int array;
  op2 : int array;
  op3 : int array;
  fop : float array;
  allocs : int;  (** number of [Alloc] events, counted as the ring is built *)
  max_id : int;  (** highest [Alloc] id (0 if none), recorded likewise *)
}

type t = { header : header; ring : ring }

(** [of_events header evs] is the trace of [evs] (the constructor tests
    and tools use): it encodes them and decodes the bytes with
    {!of_string}, so its ring is exactly a recorded trace's. Raises
    [Invalid_argument] when {!of_string} rejects the result (a header
    whose heap geometry {!heap_config} cannot rebuild). *)
val of_events : header -> event array -> t

val num_events : t -> int
val ring : t -> ring

(** [tag_at t i] is the ring tag of event [i] (no bounds check — the
    differ's lockstep checkpoint test). *)
val tag_at : t -> int -> int

(** [event t i] materializes event [i] as the boxed variant view. *)
val event : t -> int -> event

(** [events t] materializes the whole boxed-variant view (differ, [stat],
    tests — not the replay hot path). *)
val events : t -> event array

(** [(alloc_count, max_id)] over the ring — the replayer's id-map
    presizing input. Recorded when the ring is built, so this is O(1). *)
val alloc_stats : t -> int * int

(** The ring tags of [Safepoint] and [Finish] events, to compare with
    {!tag_at}. *)
val tag_safepoint : int

val tag_finish : int

(** The current writer version. Readers accept only this version. *)
val current_version : int

(** [make_header] fills [version] with {!current_version} and the heap
    geometry from [cfg]. *)
val make_header :
  workload:string ->
  collector:string ->
  seed:int ->
  scale:float ->
  heap_factor:float ->
  cfg:Repro_heap.Heap_config.t ->
  header

(** [heap_config h] reconstructs the heap configuration the trace was
    recorded under. *)
val heap_config : header -> Repro_heap.Heap_config.t

(* Low-level streaming encoder, used by {!Recorder}: header and events
   are encoded into separate buffers and assembled (with the trailer) by
   [assemble]. *)

val encode_header : Buffer.t -> header -> unit
val encode_event : Buffer.t -> event -> unit

(** [assemble ~header_buf ~events_buf ~count] is the complete serialized
    trace: magic, header, events, trailer. *)
val assemble : header_buf:Buffer.t -> events_buf:Buffer.t -> count:int -> string

(** [to_string t] encodes [t] event by event through {!encode_event}:
    the inverse of {!of_string}. *)
val to_string : t -> string

(** [of_string s] decodes and validates (magic, version, checksum, event
    count, truncation), and rejects a header whose heap geometry
    {!heap_config} cannot rebuild. The ring is allocated once at the
    event count the trailer declares; that count is only a size hint, so
    a wrong one changes what is allocated but never the result. *)
val of_string : string -> (t, string) result

val of_file : string -> (t, string) result

(** [write_string_to_file] for pre-assembled bytes (the recorder). *)
val write_string_to_file : string -> string -> unit
