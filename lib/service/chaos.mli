(** Seeded chaos schedules: whole-replica and arrival-process fault
    events ({!fault_class}) fired against the fleet timeline.

    Spec grammar (comma-separated):
    {v
      crash@0.30            kill a seeded-random replica at 30% of the run
      crash@0.30:r1         ... replica 1 specifically
      stall@0.45+0.10x4     4x slowdown for one replica over [0.45, 0.55)
      heap-shrink@0.60x0.7  restart the target into a 0.7x heap
      flash-crowd@0.50+0.15x3  arrival rate x3 over [0.50, 0.65)
      restart:2ms           relaunch delay after a death
      warmup:6              slow-start admission ramp, in rounds
      auto-restart:off      leave dead replicas down (default: on)
    v}

    Event times are fractions of the nominal arrival span, replica
    targets default to one seeded PRNG draw per event, and the fleet
    fires events only at scheduling barriers — so a fixed (spec, seed)
    pair yields a bit-identical fault timeline at every [--domains] and
    [--gc-threads] count. *)

(** The serving tier's fault classes: declarative events scheduled
    against the fleet timeline (checkpoint-quantized, so firings are
    bit-identical across domain counts), not the per-operation
    probability draws of {!Repro_engine.Fault}. *)
type fault_class =
  | Replica_crash  (** the replica process dies; in-flight work is lost *)
  | Replica_stall
      (** the replica keeps serving but every request runs slower by a
          factor for a window (CPU antagonist / noisy neighbour) *)
  | Heap_shrink
      (** operational heap resize under load: the replica is restarted
          into a heap scaled by a factor < 1 *)
  | Flash_crowd  (** the arrival process spikes by a factor for a window *)

type event_spec = {
  cls : fault_class;
  at : float;  (** fraction of the nominal arrival span, in [0, 1] *)
  dur : float;  (** window length as a fraction; 0 when instantaneous *)
  factor : float;
      (** stall slowdown (>= 1), heap scale (0.05..1], or arrival
          multiplier (>= 1) *)
  replica : int option;
      (** explicit [:rN] target; {!Fleet.run} rejects one that is not
          below its replica count *)
}

type spec = {
  events : event_spec list;
  restart_delay_ns : float option;
  warmup_rounds : int option;
  auto_restart : bool;
}

(** No events, defaults only. *)
val empty : spec

(** [of_spec s] parses and range-checks a CLI spec; unknown classes and
    keys carry did-you-mean hints. *)
val of_spec : string -> (spec, string) result

(** One scheduled event with absolute fleet times and a resolved
    replica target. *)
type firing = {
  f_cls : fault_class;
  f_replica : int;  (** [-1] for the arrival-process flash-crowd *)
  f_start : float;
  f_end : float;
  f_factor : float;
}

type t

(** [schedule spec ~seed ~replicas ~t0 ~span] resolves fractions against
    the nominal arrival span [t0, t0+span) and draws unspecified replica
    targets from one PRNG seeded by [seed]; explicit targets are kept as
    given. *)
val schedule : spec -> seed:int -> replicas:int -> t0:float -> span:float -> t

(** Pop every firing with [f_start < until], in time order. *)
val due : t -> until:float -> firing list

(** The still-pending flash-crowd windows, as [(start, end, factor)] —
    consumed up-front by arrival generation. *)
val flash_windows : t -> (float * float * float) list
