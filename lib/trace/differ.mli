(** Cross-collector differential testing over a recorded trace.

    Replays one trace through N collectors in lockstep — every collector
    applies event [k] before any applies event [k+1] — and cross-checks
    them at every checkpoint: each explicit safepoint marker, the finish
    marker, and (for throughput traces, which carry no explicit
    safepoints) every [every] events. At a checkpoint the driver
    compares, across collectors, the *recorded-id* live set reachable
    from the roots (mutator-determined, so any disagreement means some
    collector freed a reachable object or resurrected a dead one) and
    the replayed survived-byte counters, and optionally runs the
    [lib/verify] heap-integrity oracle against every collector's heap.

    The report localises the first divergence — event index plus the
    smallest disagreeing object id — rather than reducing to pass/fail,
    which is what makes a failing differential run debuggable. *)

type divergence = {
  event_index : int;  (** index of the last applied event *)
  checkpoint : int;  (** ordinal of the checkpoint that caught it *)
  kind : string;  (** ["live-set"], ["survived-bytes"], ["oracle"], ["oom"] *)
  subject : string;  (** e.g. ["object 1042"] — what disagrees *)
  detail : string;  (** per-collector expected/found rendering *)
}

type report = {
  trace_events : int;
  collectors : string list;  (** display names, in replay order *)
  skipped : (string * string) list;
      (** lanes dropped before replay because the collector refused the
          trace's heap geometry (e.g. ZGC's minimum heap), as
          [(label, reason)] — a collector property, not a divergence *)
  checkpoints : int;  (** checkpoints fully evaluated *)
  divergences : divergence list;  (** detection order, bounded *)
  total_divergences : int;
  oracle_checks : int;  (** per-collector oracle runs performed *)
}

val divergence_to_string : divergence -> string

(** One-line summary plus one line per retained divergence. *)
val report_to_string : report -> string

(** [run ~trace ~collectors ()] drives the lockstep replay.

    [verify] enables the per-collector integrity oracle at checkpoints.
    [every] adds a checkpoint after every [every] events (default 4096;
    [0] disables interval checkpoints). [inject] attaches a fault
    injector to the named collector's run — the supported way to
    demonstrate that an induced divergence is caught and localised;
    raises [Invalid_argument] when it names none of [collectors].
    [max_divergences] bounds retained (not counted) divergences; the
    drive stops early once reached (default 8). Replay under each
    collector uses the trace header's heap geometry and the default cost
    model. [gc_threads] (default 1) sizes each lane's host-side
    work-packet pool ({!Repro_par.Par}); checkpoints — like every other
    observable — are bit-identical for every value. A collector that
    refuses that geometry
    ({!Repro_engine.Collector.Unsupported}) is reported in
    [skipped] and the remaining lanes are diffed; the exception
    propagates only when every requested collector refuses. *)
val run :
  ?verify:bool ->
  ?every:int ->
  ?max_divergences:int ->
  ?inject:string * Repro_engine.Fault.t ->
  ?gc_threads:int ->
  trace:Trace_format.t ->
  collectors:(string * Repro_engine.Collector.factory) list ->
  unit ->
  report
