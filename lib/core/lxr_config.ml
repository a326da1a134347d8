type t = {
  survival_threshold_bytes : int;
  increment_threshold : int option;
  epoch_alloc_cap_bytes : int;
  free_low_watermark_blocks : int;
  clean_blocks_trigger : int;
  wastage_threshold : float;
  satb_backstop_pauses : int;
  evacuate_young : bool;
  max_evac_targets : int;
  evac_occupancy_max : float;
  evac_region_blocks : int;
  evac_regions_per_pause : int option;
  concurrent_satb : bool;
  lazy_decrements : bool;
  field_logging_barrier : bool;
}

let scaled_default ~heap_bytes ~block_bytes =
  let blocks = heap_bytes / block_bytes in
  { (* The paper's 128 MB threshold sits at ~1/16 of its typical 2 GB
       heap budgets; keep the same proportion. *)
    survival_threshold_bytes = max (2 * block_bytes) (heap_bytes / 16);
    increment_threshold = None;
    epoch_alloc_cap_bytes = max (4 * block_bytes) (heap_bytes / 4);
    free_low_watermark_blocks = max 2 (blocks / 24);
    clean_blocks_trigger = max 1 (blocks / 24);
    wastage_threshold = 0.05;
    satb_backstop_pauses = 12;
    evacuate_young = true;
    (* The default configuration uses a single whole-heap evacuation set
       (§4): every sufficiently fragmented block is a candidate. *)
    max_evac_targets = max 2 (blocks / 2);
    evac_occupancy_max = 0.5;
    evac_region_blocks = 16;
    evac_regions_per_pause = None;
    concurrent_satb = true;
    lazy_decrements = true;
    field_logging_barrier = true }

(* --- Knob descriptors ---------------------------------------------------
   One table drives both the CLI (`--lxr-knob=name=value`, with range
   validation and did-you-mean) and the online controllers (which move
   the tunable subset between epochs). Every field is viewed as a float:
   bools as 0/1, the [int option] triggers as 0 = disabled. Setters
   clamp into the knob's sanity range so a controller step can never
   push a configuration out of bounds. *)

type kind = Int | Float | Bool

type knob = {
  k_name : string;
  k_doc : string;
  k_kind : kind;
  k_lo : float;
  k_hi : float;
  k_tunable : bool;  (** controllers may move it between epochs *)
  k_get : t -> float;
  k_set : t -> float -> t;
}

let clamp ~lo ~hi v = if v < lo then lo else if v > hi then hi else v

let knob ?(tunable = false) ~kind ~lo ~hi name doc get set =
  { k_name = name;
    k_doc = doc;
    k_kind = kind;
    k_lo = lo;
    k_hi = hi;
    k_tunable = tunable;
    k_get = get;
    k_set = (fun t v -> set t (clamp ~lo ~hi v)) }

let b v = v >= 0.5
let bf v = if v then 1.0 else 0.0
let opt_of v = if v <= 0.0 then None else Some (int_of_float v)
let of_opt o = Float.of_int (Option.value o ~default:0)

let knobs =
  [ knob "survival_threshold_bytes"
      "RC pause when predicted young survival reaches this many bytes"
      ~kind:Int ~lo:4096.0 ~hi:1e12 ~tunable:true
      (fun t -> Float.of_int t.survival_threshold_bytes)
      (fun t v -> { t with survival_threshold_bytes = int_of_float v });
    knob "increment_threshold"
      "RC pause when the modified-field buffer reaches this size (0 = off)"
      ~kind:Int ~lo:0.0 ~hi:1e9
      (fun t -> of_opt t.increment_threshold)
      (fun t v -> { t with increment_threshold = opt_of v });
    knob "epoch_alloc_cap_bytes"
      "hard cap on allocation between RC pauses"
      ~kind:Int ~lo:4096.0 ~hi:1e12 ~tunable:true
      (fun t -> Float.of_int t.epoch_alloc_cap_bytes)
      (fun t v -> { t with epoch_alloc_cap_bytes = int_of_float v });
    knob "free_low_watermark_blocks"
      "RC pause when fewer free+recyclable blocks remain"
      ~kind:Int ~lo:1.0 ~hi:1e6 ~tunable:true
      (fun t -> Float.of_int t.free_low_watermark_blocks)
      (fun t v -> { t with free_low_watermark_blocks = int_of_float v });
    knob "clean_blocks_trigger"
      "request an SATB when an RC epoch yields fewer clean blocks"
      ~kind:Int ~lo:0.0 ~hi:1e6 ~tunable:true
      (fun t -> Float.of_int t.clean_blocks_trigger)
      (fun t v -> { t with clean_blocks_trigger = int_of_float v });
    knob "wastage_threshold"
      "request an SATB at this predicted heap wastage fraction"
      ~kind:Float ~lo:0.005 ~hi:0.9 ~tunable:true
      (fun t -> t.wastage_threshold)
      (fun t v -> { t with wastage_threshold = v });
    knob "satb_backstop_pauses"
      "force an SATB after this many RC pauses without one"
      ~kind:Int ~lo:1.0 ~hi:1000.0 ~tunable:true
      (fun t -> Float.of_int t.satb_backstop_pauses)
      (fun t v -> { t with satb_backstop_pauses = int_of_float v });
    knob "evacuate_young"
      "evacuate implicitly-dead young blocks (bool)"
      ~kind:Bool ~lo:0.0 ~hi:1.0
      (fun t -> bf t.evacuate_young)
      (fun t v -> { t with evacuate_young = b v });
    knob "max_evac_targets"
      "blocks per evacuation set"
      ~kind:Int ~lo:0.0 ~hi:1e6 ~tunable:true
      (fun t -> Float.of_int t.max_evac_targets)
      (fun t v -> { t with max_evac_targets = int_of_float v });
    knob "evac_occupancy_max"
      "only blocks under this occupancy fraction are evacuation targets"
      ~kind:Float ~lo:0.05 ~hi:0.95 ~tunable:true
      (fun t -> t.evac_occupancy_max)
      (fun t v -> { t with evac_occupancy_max = v });
    knob "evac_region_blocks"
      "contiguous region granularity for evacuation sets, in blocks"
      ~kind:Int ~lo:1.0 ~hi:4096.0
      (fun t -> Float.of_int t.evac_region_blocks)
      (fun t v -> { t with evac_region_blocks = int_of_float v });
    knob "evac_regions_per_pause"
      "regions evacuated per RC pause (0 = whole set at once)"
      ~kind:Int ~lo:0.0 ~hi:10000.0
      (fun t -> of_opt t.evac_regions_per_pause)
      (fun t v -> { t with evac_regions_per_pause = opt_of v });
    knob "concurrent_satb"
      "trace concurrently; false = trace inside the pause (bool)"
      ~kind:Bool ~lo:0.0 ~hi:1.0
      (fun t -> bf t.concurrent_satb)
      (fun t v -> { t with concurrent_satb = b v });
    knob "lazy_decrements"
      "process decrements concurrently (bool)"
      ~kind:Bool ~lo:0.0 ~hi:1.0
      (fun t -> bf t.lazy_decrements)
      (fun t v -> { t with lazy_decrements = b v });
    knob "field_logging_barrier"
      "remember overwritten fields rather than whole objects (bool)"
      ~kind:Bool ~lo:0.0 ~hi:1.0
      (fun t -> bf t.field_logging_barrier)
      (fun t v -> { t with field_logging_barrier = b v }) ]

let knob_names = List.map (fun k -> k.k_name) knobs

let tunable_knobs = List.filter (fun k -> k.k_tunable) knobs

let find_knob name =
  Repro_util.Spec.choose ~what:"LXR knob"
    (List.map (fun k -> (k.k_name, k)) knobs)
    name

let parse_override spec =
  let module Spec = Repro_util.Spec in
  let ( let* ) = Result.bind in
  match Spec.kv ~sep:'=' spec with
  | None ->
    Spec.malformed ~what:"knob override" ~form:"name=value" ~known:knob_names
      spec
  | Some (name, s) ->
    let* k = find_knob name in
    let what = k.k_name in
    let* v =
      match k.k_kind with
      | Bool -> Result.map bf (Spec.bool ~what s)
      | Int ->
        Result.map Float.of_int
          (Spec.int_in ~what ~lo:(int_of_float k.k_lo)
             ~hi:(int_of_float k.k_hi) s)
      | Float -> Spec.float_in ~what ~lo:k.k_lo ~hi:k.k_hi s
    in
    Ok (k, v)

let no_concurrent_satb t = { t with concurrent_satb = false }
let no_lazy_decrements t = { t with lazy_decrements = false }
let stw t = { t with concurrent_satb = false; lazy_decrements = false }
let object_barrier t = { t with field_logging_barrier = false }
let regional_evacuation t = { t with evac_regions_per_pause = Some 1 }
