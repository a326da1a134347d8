(** The full collector registry available to command-line tools: every
    {!Repro_collectors.Registry} collector plus the LXR variants, under
    one name space — shared by [lxr_sim] and [lxr_trace] so lookups (and
    their "did you mean" errors) behave identically everywhere. *)

val all : (string * Repro_engine.Collector.factory) list

val names : string list

(** [find name] resolves case-insensitively; the error message carries a
    typo suggestion when one is close. *)
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
