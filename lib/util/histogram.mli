(** Log-scale histogram for latency and pause-time distributions.

    Recording a value is O(1) and the structure is bounded, so the
    simulator can record every request latency and every GC pause without
    holding per-sample storage — the same role HdrHistogram plays in the
    paper's harness. Values are bucketed with ~1% relative precision. *)

type t

(** [create ()] is an empty histogram accepting values in
    [\[1, 2^62\]] (values below 1 are clamped to 1). *)
val create : unit -> t

(** [record t v] adds one sample of magnitude [v] (e.g. nanoseconds). *)
val record : t -> int -> unit

(** Number of recorded samples. *)
val count : t -> int

(** Sum of all recorded values (using bucket representative values). *)
val total : t -> int

(** [percentile_opt t p] is the value (bucket representative) at
    percentile [p], or [None] when the histogram is empty (e.g. a
    zero-pause run) or [p] is outside [\[0, 100\]]. Percentile 100 is
    the maximum recorded value. *)
val percentile_opt : t -> float -> int option

(** Arithmetic mean of samples; [None] on an empty histogram. *)
val mean_opt : t -> float option

(** [equal a b] — same samples, bucket for bucket. Because bucketing is
    deterministic per value, recording one sample stream into a single
    histogram and recording a partition of it into several histograms
    then {!merge}-ing them yield [equal] results; the fleet harness's
    determinism tests rely on this. *)
val equal : t -> t -> bool

(** [merge ~into src] adds all of [src]'s samples into [into]. *)
val merge : into:t -> t -> unit

(** [clear t] removes all samples. *)
val clear : t -> unit
