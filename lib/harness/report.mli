(** Human-readable rendering of a {!Runner.result} — shared by the
    [lxr_sim] and [lxr_trace] executables. All output goes to stdout. *)

(** [print_result r] — the standard run summary: timing, pauses,
    allocation, latency percentiles, collector counters, ladder and
    verifier extras. *)
val print_result : Runner.result -> unit

(** The ladder/verifier/violation tail of {!print_result} alone. *)
val print_extras : Runner.result -> unit

(** [print_fleet r] — one fleet run: admission counters, end-to-end
    latency and queueing percentiles (microseconds), diversions, and a
    per-replica utilization/pause breakdown. *)
val print_fleet : Repro_service.Fleet.result -> unit

(** [fleet_table ~title results] renders a fixed-width comparison table
    (one row per collector x policy cell; failed cells carry their
    error). *)
val fleet_table : title:string -> Repro_service.Fleet.result list -> string

(** The same comparison as a GitHub-flavoured markdown table. *)
val fleet_markdown : Repro_service.Fleet.result list -> string

(** The full result list as a JSON array (hand-rolled — the harness has
    no serialization dependency), including per-replica stats and raw
    nanosecond percentiles. *)
val fleet_json : Repro_service.Fleet.result list -> string

(** {2 Distilled cost}

    One row per {!Distill.t}, in list order. A failed row names its
    contender ({!Distill.collector}) and the real run's error, and has
    no components. *)

val distill_table : title:string -> Distill.t list -> string
val distill_markdown : Distill.t list -> string
val distill_json : Distill.t list -> string
