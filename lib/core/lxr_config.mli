(** LXR tunables (§4 "LXR Configuration" and the Table 7 ablations).

    The paper's default configuration: a two-bit reference count (owned by
    {!Repro_heap.Heap_config}), a 128 MB survival threshold, no increment
    threshold, a 5% mature wastage threshold, and a single evacuation
    set. Thresholds expressed in bytes here scale with the (much smaller)
    simulated heaps via {!scaled_default}. *)

type t = {
  (* RC triggers (§3.2.1). *)
  survival_threshold_bytes : int;
      (** pause when predicted young survival since the last pause reaches
          this many bytes *)
  increment_threshold : int option;
      (** pause when the modified-field buffer reaches this size *)
  epoch_alloc_cap_bytes : int;
      (** hard cap on allocation between pauses (backstop trigger) *)
  free_low_watermark_blocks : int;
      (** pause when fewer free+recyclable blocks remain *)
  (* SATB triggers (§3.2.2). *)
  clean_blocks_trigger : int;
      (** request an SATB when an RC epoch yields fewer clean blocks *)
  wastage_threshold : float;  (** request an SATB at this predicted heap wastage *)
  satb_backstop_pauses : int;
      (** completeness backstop: request an SATB after this many RC pauses
          without one, so cyclic garbage cannot float forever *)
  (* Evacuation (§3.3.2). *)
  evacuate_young : bool;  (** implicitly-dead young evacuation *)
  max_evac_targets : int;  (** blocks per evacuation set *)
  evac_occupancy_max : float;  (** only blocks under this occupancy are targets *)
  evac_region_blocks : int;
      (** contiguous region granularity for evacuation sets (the paper's
          4 MB regions, scaled: 16 blocks = 512 KB) *)
  evac_regions_per_pause : int option;
      (** incremental evacuation: regions evacuated per RC pause ([None] =
          the whole evacuation set at once — the default single-set
          configuration of §4) *)
  (* Concurrency ablations (Table 7: -SATB, -LD, STW). *)
  concurrent_satb : bool;  (** trace concurrently; [false] = trace in the pause *)
  lazy_decrements : bool;  (** process decrements concurrently *)
  (* Barrier granularity (§3.4): the coalescing barrier may remember
     overwritten fields (precise, the evaluated default) or whole objects
     (cheaper mutator fast path, more collector work). *)
  field_logging_barrier : bool;
}

(** [scaled_default ~heap_bytes ~block_bytes] is the paper's default
    configuration with byte thresholds scaled to the simulated heap. *)
val scaled_default : heap_bytes:int -> block_bytes:int -> t

(** {2 Knob descriptors}

    One table drives both the CLI ([--lxr-knob=name=value]) and the
    online controllers ({!Repro_policy.Controller}): every field viewed
    as a float (bools as 0/1, the [int option] triggers as 0 =
    disabled), with a per-knob sanity range. Setters clamp into the
    range, so controller exploration can never leave it. *)

type kind = Int | Float | Bool

type knob = {
  k_name : string;
  k_doc : string;
  k_kind : kind;
  k_lo : float;  (** inclusive sanity range *)
  k_hi : float;
  k_tunable : bool;  (** controllers may move it between epochs *)
  k_get : t -> float;
  k_set : t -> float -> t;  (** clamps into [k_lo, k_hi] *)
}

val knobs : knob list

val knob_names : string list

(** The designated controller-tunable subset (trigger thresholds and
    evacuation sizing; the boolean ablations and structural knobs are
    excluded). *)
val tunable_knobs : knob list

(** [find_knob name] — case-insensitive; the error carries a
    did-you-mean hint over {!knob_names}. *)
val find_knob : string -> (knob, string) result

(** [parse_override "name=value"] resolves the knob and validates the
    value against its kind and range (bools as 0/1); apply it with the
    knob's [k_set]. Errors name the knob and the value (unknown names
    with a hint, parse failure, out-of-range). *)
val parse_override : string -> (knob * float, string) result

(** Ablated variants for Table 7. *)

val no_concurrent_satb : t -> t

val no_lazy_decrements : t -> t

(** Fully stop-the-world: both ablations — approximates RC-Immix. *)
val stw : t -> t

(** Object-remembering barrier variant (§3.4). *)
val object_barrier : t -> t

(** Region-based evacuation: many remembered sets, evacuated
    incrementally over RC pauses (§3.3.2). *)
val regional_evacuation : t -> t
