(** A unit parallel-for over OCaml domains.

    The fleet runs its replica rounds through {!parallel_for}: one packet
    per replica that has work, each touching only its own replica.
    Because packet bodies share no mutable state and every path runs
    every packet before it re-raises the lowest-index exception, a
    fleet's output is bit-identical for every [--domains] value.
    Collector phases do not use the pool: every collector kernel is a
    serial loop on the domain that owns its heap.

    A run of one packet, a nested run and a run on a pool without
    workers execute inline on the caller. A run of two or more packets
    publishes a job through one atomic slot; the submitter and the
    workers claim packets from it, and each side spins a fixed budget of
    [Domain.cpu_relax] before it blocks on a condition variable, which
    the other side signals only when a thread is actually parked. On
    hosts without spare cores ([Domain.recommended_domain_count]) the
    pool spawns no workers and every run is inline. *)

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

  (** Worker domains actually spawned (0 on saturated hosts). *)
  val workers : t -> int

  (** Join the pool's worker domains. The pool runs inline afterwards. *)
  val shutdown : t -> unit
end

(** [parallel_for pool ~packets body] runs [body i] once for every
    packet index in [0, packets), in parallel and in any order, and
    returns when all have finished. Packet bodies must not mutate state
    shared between packets. An exception in a body does not stop the
    other packets: once every packet has run, the exception of the
    lowest failing index is re-raised with its backtrace. Re-entrant
    calls (a packet body, or a second domain while a run is in flight)
    execute inline, so nesting never oversubscribes. Raises
    [Invalid_argument] when [packets < 0]. *)
val parallel_for : Pool.t -> packets:int -> (int -> unit) -> unit
