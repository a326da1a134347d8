(** Journal-RC: a pause-free mutator lane over snapshot journals and an
    absolute reference-count map (after mo-gc's journal model).

    Every reference store appends a [(src, field, old, new)] quad to a
    per-mutator journal; full chunks publish to a FIFO the concurrent
    drain folds into the shared RC table — increments immediately,
    decrements deferred past the next root snapshot, so a reachable
    object's count never drops below one. A short snapshot pause per
    epoch catches up the journal, re-snapshots the roots, and sweeps the
    young region with cascading decrements (the divergence from LXR
    that keeps the counts exact forever). Cyclic
    garbage falls to a periodic in-pause parallel mark/sweep backstop.
    Per-arena sequential-store buffers re-sweep blocks whose
    classification went stale under concurrent decrement frees. *)

val factory : Repro_engine.Collector.factory
