(** The one collector table: every collector the front ends, the
    experiments and the differ can name, in {!names} order — LXR and its
    variants, the eight other costed collectors, and the ideal
    free-reclamation baseline ({!Repro_collectors.Ideal}). *)

val all : (string * Repro_engine.Collector.factory) list

val names : string list

(** The costed collectors besides LXR (serial, parallel, immix,
    semispace, g1, shenandoah, zgc, journal_rc), in {!all}'s order: the
    rows evaluation matrices put beside LXR. *)
val non_lxr : (string * Repro_engine.Collector.factory) list

(** [lockstep_ok name] is false for names excluded from differ lockstep
    replay: only the ideal baseline, which is the methodology's
    yardstick, not a collector under test. *)
val lockstep_ok : string -> bool

(** [find name] resolves case-insensitively; the error names the
    collector, carries a "did you mean" hint when one is close, and
    lists {!names}. Every command-line front end resolves collectors
    through here, so the error reads the same everywhere. *)
val find : string -> (Repro_engine.Collector.factory, string) result

(** [find_workload name] — same contract for benchmark names. *)
val find_workload : string -> (Repro_mutator.Workload.t, string) result

(** [resolve ?controller ?knobs name] is {!find} extended with the CLI's
    LXR-specific options: [knobs] is a list of [--lxr-knob] overrides
    ("name=value", validated eagerly against {!Repro_lxr.Lxr_config}'s
    knob table with did-you-mean hints), and [controller] an optional
    [--controller] spec ({!Repro_policy.Controller.parse}) that wraps
    LXR in an online knob controller, whose [Burn] objective reads
    [burn] (see {!Repro_policy.Controller.lxr_factory}). Both require
    the collector to be "lxr"; the error explains otherwise. *)
val resolve :
  ?controller:string ->
  ?burn:(unit -> float) ->
  ?knobs:string list ->
  string ->
  (Repro_engine.Collector.factory, string) result
