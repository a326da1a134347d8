(** LXR: Latency-critical ImmiX with Reference counting (§3).

    The collector runs regular, brief stop-the-world RC pauses and limits
    concurrency to lazy decrement processing and the backup SATB trace:

    - a field-logging write barrier feeds a decrement buffer (overwritten
      referents) and a modified-fields buffer (§3.4, Figure 3);
    - each pause applies root and modified-field increments first — young
      objects receiving their [0 -> 1] increment are promoted,
      opportunistically evacuated, and cascade increments to their
      children (implicitly dead, §2.1) — then schedules decrements;
    - blocks allocated into since the last pause are swept by inspecting
      the RC table; all-zero blocks are reclaimed without ever touching
      their dead young objects (§3.3.1);
    - decrements run concurrently after the pause (lazy decrements),
      followed by lazy sweeping of the blocks they touched;
    - an occasional SATB trace, spanning multiple RC epochs, reclaims
      cycles and stuck counts, bootstraps RC remembered sets, and selects
      fragmented mature blocks for evacuation at a later pause (§3.2.2,
      §3.3.2);
    - survival-rate and wastage predictors drive the RC and SATB triggers
      (§3.2.1-2). *)

(** The default LXR factory (concurrent SATB + lazy decrements). *)
val factory : Repro_engine.Collector.factory

(** What a tuning controller learns at each epoch boundary (the end of
    every RC pause), before the next epoch begins. All values are
    simulated metrics, so any deterministic function of them keeps the
    run bit-identical across [--domains]. *)
type epoch_feedback = {
  now_ns : float;  (** virtual clock after the pause *)
  pause_wall_ns : float;  (** the ending pause's wall time *)
  pause_cpu_ns : float;
}

(** [factory_tuned ~name ~tune ()] builds collectors that re-tune their
    {!Lxr_config} between epochs: [tune sim] runs once per collector
    instance (a fleet replica gets its own controller state) and the
    resulting function maps epoch feedback and the current configuration
    to the next epoch's configuration. [config] transforms the scaled
    default into the starting configuration. *)
val factory_tuned :
  ?config:(Lxr_config.t -> Lxr_config.t) ->
  name:string ->
  tune:
    (Repro_engine.Sim.t -> epoch_feedback -> Lxr_config.t -> Lxr_config.t) ->
  unit ->
  Repro_engine.Collector.factory

(** [factory_with ~name ~config ()] builds a factory with an explicit
    configuration — used for the Table 7 ablations and §5.4 sensitivity
    runs. [config] receives the scaled default for the heap being
    created. *)
val factory_with :
  name:string -> config:(Lxr_config.t -> Lxr_config.t) -> unit ->
  Repro_engine.Collector.factory

(** Named ablations (Table 7). *)

val factory_no_satb_concurrency : Repro_engine.Collector.factory

val factory_no_lazy_decrements : Repro_engine.Collector.factory
val factory_stw : Repro_engine.Collector.factory

(** Object-remembering barrier variant (§3.4). *)
val factory_object_barrier : Repro_engine.Collector.factory

(** Region-based evacuation sets, one region evacuated per pause
    (§3.3.2). *)
val factory_regional_evacuation : Repro_engine.Collector.factory
