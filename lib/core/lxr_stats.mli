(** Counters behind Table 7's per-benchmark breakdown. *)

type t = {
  (* Barrier activity. *)
  mutable wb_fast : int;  (** barrier fast paths taken *)
  mutable wb_slow : int;  (** fields logged (slow paths) *)
  mutable increments : int;  (** RC increments applied *)
  mutable decrements : int;  (** RC decrements applied *)
  (* Pauses. *)
  mutable rc_pauses : int;
  mutable satb_pauses : int;  (** pauses that initiated an SATB trace *)
  mutable unfinished_lazy_pauses : int;
      (** pauses entered before lazy decrements completed *)
  (* Reclamation, in bytes. *)
  mutable young_reclaimed : int;  (** implicitly dead (never incremented) *)
  mutable old_reclaimed : int;  (** mature RC (decrement to zero) *)
  mutable satb_reclaimed : int;  (** cycles / stuck counts via the trace *)
  mutable young_evacuated : int;  (** bytes copied by young evacuation *)
  mutable mature_evacuated : int;  (** bytes copied by mature evacuation *)
  mutable clean_young_blocks : int;  (** completely free blocks from young sweeps *)
  (* Stuck counts, observed at each SATB reclamation. *)
  mutable stuck_objects : int;
  mutable mature_objects_seen : int;
  (* Remembered sets. *)
  mutable remset_entries : int;
  mutable remset_stale : int;  (** entries discarded by the reuse-counter check *)
  mutable satb_traces_completed : int;
  (* Pause-phase CPU breakdown (ns): where stop-the-world time goes. *)
  mutable phase_inc_ns : float;  (** root scan + increment processing *)
  mutable phase_dec_ns : float;  (** in-pause decrements (unfinished lazy / -LD) *)
  mutable phase_sweep_ns : float;  (** young-block sweeping *)
  mutable phase_evac_ns : float;  (** mature evacuation + SATB reclamation *)
  mutable phase_satb_ns : float;  (** in-pause tracing (-SATB / emergencies) *)
}

val create : unit -> t

(** Export everything for the generic collector stats hook. *)
val to_alist : t -> (string * float) list
