(** One generator per table and figure of the paper's evaluation (§5).

    Each function runs the required (workload x collector x heap) matrix
    and renders a paper-style text table, annotated with the published
    values where the paper reports them, so shape can be compared
    directly. The collector comparisons share one run grid (each
    workload's runs under each collector, workload-major) and one
    baseline ratio (a collector's mean metric over the baseline's, e.g.
    G1 in Tables 5 and 6 and default LXR in Table 7 and the sensitivity
    study, geomeaned over the workloads where both ran). All randomness
    is seeded; [iterations] controls how many seeds feed the confidence
    intervals. [test/golden/experiments.digest] pins every generator's
    output at [--scale 0.02 --iterations 2]. *)

type opts = {
  scale : float;  (** workload scale factor (allocation volume / requests) *)
  iterations : int;  (** independent seeded repetitions *)
  seed : int;
}

(** [default_opts name] — the scale and seed count experiment [name]
    runs at unless told otherwise: 0.5 for table5 and table7, 0.3 for
    figure7 and sensitivity, 1.0 for the rest; three seeds for table1,
    table4 and figure5, one for the rest; seed 42. *)
val default_opts : string -> opts

(** Table 1: lusearch at 1.3x — throughput, query latency and GC pauses
    for G1, Shenandoah, LXR, and Shenandoah at a 10x heap. *)
val table1 : opts -> string

(** Table 3: measured benchmark characteristics vs published ones. *)
val table3 : opts -> string

(** Table 4: request latency percentiles, 4 workloads x 4 collectors at
    1.3x. *)
val table4 : opts -> string

(** Figure 5: latency response curves (percentile series per
    collector). *)
val figure5 : opts -> string

(** Table 5: geomean 99.99% latency and time relative to G1 at 1.3x, 2x
    and 6x heaps. *)
val table5 : opts -> string

(** Table 6: throughput at 2x heap for all benchmarks. *)
val table6 : opts -> string

(** Table 7: LXR breakdown — concurrency ablations, pause statistics,
    barrier and reclamation counters. *)
val table7 : opts -> string

(** Figure 7a/7b: LBO wall-clock and total-cycle overhead curves across
    heap sizes. *)
val figure7 : opts -> string

(** §5.4: block size, RC bit width, free-block buffer sensitivity, plus
    the survival-trigger ablation. *)
val sensitivity : opts -> string

(** Fleet serving tier: lusearch at 1.3x behind 4 replicas, every
    production collector crossed with every load-balancing policy.
    Shows gc-aware routing hiding per-replica pauses from the
    fleet-level tail. *)
val fleet : opts -> string

(** Fleet resilience: the same serving tier under a seeded chaos
    schedule (replica crash, heap-shrink restart, flash crowd), with and
    without gc-aware routing + client retries. Shows the resilient
    configuration winning both the p99.9 tail and availability. *)
val chaos : opts -> string

(** Journal flood: the synthetic jflood workload's pointer-churn bursts
    (24 mature stores per allocation) against lusearch as control, for
    G1/LXR/Shenandoah/Journal-RC at 2x heap. Documents the drain-lag
    pathology: journal records outrun the concurrent fold, snapshot
    pauses inherit the backlog, and LXR's coalescing barrier wins. *)
val journal_flood : opts -> string

(** Distilled cost: LXR and every other costed collector against the
    free-reclamation baseline on lusearch, jflood and the two
    adversarial workloads, with the cost decomposed into STW,
    concurrent-CPU, barrier and allocation-stall components. *)
val distill : opts -> string

(** Online controllers: static scaled-default LXR vs the hill-climb and
    PID controllers on the fragmentation-adversarial and phase-shifting
    workloads, compared on distilled cost. *)
val controller : opts -> string

(** [by_name s] looks an experiment up by one of {!names}. *)
val by_name : string -> (opts -> string) option

(** Every experiment name, in the order [lxr_sim experiment all] runs
    them. *)
val names : string list
