(** The idealised free-reclamation baseline collector ("ideal").

    Semantically a precise mark-sweep(-compact) — garbage is reclaimed
    exactly, so allocation succeeds for as long as the live set fits —
    but at zero virtual cost: no pauses, no GC CPU, no barriers, no
    allocation stalls. A run under it prices the mutator's compute plus
    the allocator fast/slow paths, the baseline the distilled-cost
    methodology subtracts from a real collector's run
    ([Repro_harness.Distill]). It collects only when an allocation
    fails, so its heap runs full and fragmented and its allocator pays
    slow paths an evacuating collector avoids: an estimate of the
    floor, not the floor.

    Named ["ideal"] in the harness's collector table, but excluded from
    differ lockstep: it is a methodological baseline, not a collector
    under test — a lockstep lane with free reclamation and an uncosted
    block supply reports differences of the methodology, not bugs. *)

val factory : Repro_engine.Collector.factory
