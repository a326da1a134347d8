(** Deterministic parallel-for over OCaml domains, and recycled scratch
    buffers.

    The fleet runs its replica rounds through {!map_merge}: one packet
    per replica, each touching only its own replica, with results merged
    strictly in packet-index order on the submitting domain. Because
    packet bodies share no mutable state and the merge order is fixed, a
    fleet's output is bit-identical for every [--domains] value.
    Collector phases do not use the pool: every collector kernel is a
    serial loop on the domain that owns its heap.

    On hosts without spare cores ([Domain.recommended_domain_count]),
    the pool spawns no workers and packets run inline on the submitter,
    still in the identical merge order. *)

module Pool : sig
  type t

  (** [create ~threads ()] is a pool with [threads] logical lanes.
      [threads - 1] worker domains are spawned, capped at
      [Domain.recommended_domain_count () - 1] so workers never
      oversubscribe the host; [force_spawn] lifts the cap (used by the
      scheduler's own tests to exercise real cross-domain execution on
      single-core CI hosts). Lane count must be in [1, 64]. *)
  val create : ?force_spawn:bool -> threads:int -> unit -> t

  (** Process-wide cached pool per lane count: repeated fleet runs share
      domains instead of respawning them. Workers are joined at process
      exit. *)
  val get : threads:int -> t

  (** The shared single-lane pool: every packet runs inline. *)
  val serial : t

  (** Requested lane count (the [--domains] value). *)
  val threads : t -> int

  (** Worker domains actually spawned (0 on saturated hosts). *)
  val workers : t -> int

  (** Join the pool's worker domains. The pool runs inline afterwards. *)
  val shutdown : t -> unit
end

(** Recycled buffers: [take_scratch ()] returns a cleared [Vec] from a
    process-wide free list (or a fresh one), and [recycle_scratch]
    returns it once its consumer is done with it, so collector pauses
    allocate no work queues in steady state. Contents are always
    rewritten from empty, so recycling is invisible to results; the
    caller must not retain a reference after recycling. Safe from any
    domain (fleet replicas collect on worker domains). *)
val take_scratch : unit -> Repro_util.Vec.t

val recycle_scratch : Repro_util.Vec.t -> unit

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
