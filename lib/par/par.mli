(** Deterministic work-packet scheduler for collector phases.

    Collector phases are partitioned into fixed-size packets (block
    ranges for mark/sweep, chunks of the decrement/modbuf queues for
    RC, slot ranges for registry sweeps). Workers drain a shared packet
    queue; per-packet results are merged strictly in packet-index order
    on the submitting domain. Because packet boundaries are fixed by the
    phase (never by the worker count), packet bodies are read-only with
    respect to shared collector state, and the merge applies mutations
    serially in index order, a phase produces bit-identical results for
    [--gc-threads=1] and [--gc-threads=N] — the same
    determinism-by-construction precedent as the fleet tier's replica
    rounds.

    On hosts without spare cores ([Domain.recommended_domain_count]),
    the pool spawns no workers and packets run inline on the submitter,
    still through the identical partition/merge order. *)

module Pool : sig
  type t

  (** [create ~threads ()] is a pool with [threads] logical lanes.
      [threads - 1] worker domains are spawned, capped at
      [Domain.recommended_domain_count () - 1] so GC helpers never
      oversubscribe the host; [force_spawn] lifts the cap (used by the
      scheduler's own tests to exercise real cross-domain execution on
      single-core CI hosts). Lane count must be in [1, 64]. *)
  val create : ?force_spawn:bool -> threads:int -> unit -> t

  (** Process-wide cached pool per lane count: repeated replays (bench
      reps, differ lanes) share domains instead of respawning them.
      Workers are joined at process exit. *)
  val get : threads:int -> t

  (** The shared single-lane pool: every packet runs inline. *)
  val serial : t

  (** Requested lane count (the [--gc-threads] value). *)
  val threads : t -> int

  (** Worker domains actually spawned (0 on saturated hosts). *)
  val workers : t -> int

  (** Join the pool's worker domains. The pool runs inline afterwards. *)
  val shutdown : t -> unit
end

(** Recycled packet buffers: [take_scratch ()] returns a cleared [Vec]
    from a process-wide free list (or a fresh one), [recycle_scratch]
    returns it once its consumer — normally the ordered merge — is done
    with it. Packet bodies that fill-and-merge through these allocate
    nothing in steady state. Contents are always rewritten from empty,
    so recycling is invisible to results; the caller must not retain a
    reference after recycling. Safe from worker domains. *)
val take_scratch : unit -> Repro_util.Vec.t

val recycle_scratch : Repro_util.Vec.t -> unit

(** [packet_count ~total ~packet] is the number of packets needed to
    cover [total] items at [packet] items each; [0] when [total = 0]. *)
val packet_count : total:int -> packet:int -> int

(** [span ~total ~packet i] is the [(lo, len)] item range of packet [i];
    the last packet is ragged. Packet boundaries depend only on [total]
    and [packet] — never on the pool — which is what makes the ordered
    merge deterministic across lane counts. *)
val span : total:int -> packet:int -> int -> int * int

(** [map_merge pool ~packets ~f ~merge] runs [f i] for every packet
    index (in parallel, in any order), then applies [merge i (f i)]
    strictly in ascending packet-index order on the calling domain.
    [f] must not mutate state shared between packets; all mutation
    belongs in [merge]. An exception in [f] is re-raised at merge time,
    lowest packet index first. Re-entrant calls (a packet body, or a
    second domain while a run is in flight) execute inline — nesting
    never oversubscribes. *)
val map_merge :
  Pool.t -> packets:int -> f:(int -> 'a) -> merge:(int -> 'a -> unit) -> unit

(** [map_spans pool ~total ~packet ~f ~merge] is [map_merge] over the
    fixed-size partition of [0, total): [f] receives each packet's
    [(index, lo, len)] and [merge] its result, in index order. *)
val map_spans :
  Pool.t ->
  total:int ->
  packet:int ->
  f:(int -> lo:int -> len:int -> 'a) ->
  merge:(int -> 'a -> unit) ->
  unit

(** [drain_rounds pool ~packet ~frontier ~scan ~merge] runs a breadth-
    first transitive closure in deterministic rounds: the frontier is
    partitioned into packets; [scan id out] (read-only) appends an
    encoded result for one frontier entry to its packet's [out] buffer;
    [merge out next] is applied per packet in index order and pushes
    newly discovered ids onto [next], which becomes the next round's
    frontier. Returns when a round discovers nothing. [frontier] is
    consumed (empty on return). [on_round] fires before each round with
    the round's frontier size — phases use it to seed deterministic
    per-entry cost accounting. *)
val drain_rounds :
  ?on_round:(int -> unit) ->
  Pool.t ->
  packet:int ->
  frontier:Repro_util.Vec.t ->
  scan:(int -> Repro_util.Vec.t -> unit) ->
  merge:(Repro_util.Vec.t -> Repro_util.Vec.t -> unit) ->
  unit

(** Default packet sizes (items per packet) used by the ported phases.
    Fixed constants: changing them changes phase traversal order, which
    is observable in trace-cost accounting — bump only deliberately. *)

val blocks_per_packet : int (* sweep / cset scan phases *)
val slots_per_packet : int (* registry (LOS + SATB reclaim) sweeps *)
val queue_per_packet : int (* gray frontiers *)
