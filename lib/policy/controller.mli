(** Online policy controllers over the {!Repro_lxr.Lxr_config} knob
    table.

    Two algorithms tune the designated tunable-knob subset between RC
    epochs:

    - [hill]: coordinate-descent hill climbing with multiplicative
      steps — probe one knob per measurement window, keep the move if
      the objective improved, revert and switch coordinate (seeded
      exploration) if it regressed;
    - [pid]: a PID loop on the objective's error against a setpoint,
      driving a single aggressiveness scalar that scales every
      controlled trigger threshold from its default.

    Objectives: [cost] — the per-epoch collector-attributable time
    (pause wall + barrier CPU + allocation stalls + concurrent GC CPU)
    per wall ns, an online proxy of the distilled cost ({!Repro_distill});
    [burn] — an externally supplied SLO burn rate (fleet wiring).

    Every controller input is a simulated metric and all exploration
    randomness is a seeded SplitMix64 stream, so controlled runs stay
    bit-identical across [--domains]. *)

type algo = Hill | Pid
type objective = Cost | Burn

type spec = {
  algo : algo;
  objective : objective;
  seed : int;
  window : int;  (** epochs per objective measurement *)
  step : float;  (** hill-climb multiplicative step, in (1, 8] *)
  kp : float;
  ki : float;
  kd : float;
  target : float;  (** PID setpoint *)
  knobs : Repro_lxr.Lxr_config.knob list;  (** the controlled subset *)
}

(** [default algo] — seed 42, window 3, the full tunable subset. *)
val default : algo -> spec

(** [parse "hill:seed=7,window=4,knobs=wastage_threshold+max_evac_targets"].
    Grammar: [ALGO[:key=value,...]] with ALGO in hill (alias hill-climb,
    hillclimb) or pid and keys obj (cost|burn), seed, window (1-1000),
    step (in (1, 8]), kp, ki, kd (finite), target (finite, >= 0), knobs
    (['+']-separated knob names). Parsed through {!Repro_util.Spec}:
    NaN never parses, and unknown algorithms, keys, objectives and knob
    names all carry did-you-mean hints. Errors do not name the flag. *)
val parse : string -> (spec, string) result

val to_string : spec -> string

(** Controller instances consume one sample per epoch via {!observe}. *)
type t

val create : spec -> t

(** [observe t ~cost_ns ~span_ns ~burn cfg] feeds one epoch's
    measurements and returns the (possibly unchanged) configuration for
    the next epoch. Knob moves happen only at measurement-window
    boundaries (every [spec.window] epochs). *)
val observe :
  t ->
  cost_ns:float ->
  span_ns:float ->
  burn:float ->
  Repro_lxr.Lxr_config.t ->
  Repro_lxr.Lxr_config.t

(** [lxr_factory spec] builds a collector factory whose LXR instances
    re-tune between epochs. Each instantiation creates a fresh
    controller from the same spec and seed (fleet setup is
    replica-parallel; sharing state would race). [burn] supplies the [Burn]
    objective's sample (e.g. the fleet's {!Repro_service.Slo} monitor);
    it defaults to constantly [0.]. [config] transforms the scaled
    default into the starting configuration. *)
val lxr_factory :
  ?name:string ->
  ?burn:(unit -> float) ->
  ?config:(Repro_lxr.Lxr_config.t -> Repro_lxr.Lxr_config.t) ->
  spec ->
  Repro_engine.Collector.factory
