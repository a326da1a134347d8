type t = {
  mutable wb_fast : int;
  mutable wb_slow : int;
  mutable increments : int;
  mutable decrements : int;
  mutable rc_pauses : int;
  mutable satb_pauses : int;
  mutable unfinished_lazy_pauses : int;
  mutable young_reclaimed : int;
  mutable old_reclaimed : int;
  mutable satb_reclaimed : int;
  mutable young_evacuated : int;
  mutable mature_evacuated : int;
  mutable clean_young_blocks : int;
  mutable stuck_objects : int;
  mutable mature_objects_seen : int;
  mutable remset_entries : int;
  mutable remset_stale : int;
  mutable satb_traces_completed : int;
  mutable phase_inc_ns : float;
  mutable phase_dec_ns : float;
  mutable phase_sweep_ns : float;
  mutable phase_evac_ns : float;
  mutable phase_satb_ns : float;
}

let create () =
  { wb_fast = 0; wb_slow = 0; increments = 0; decrements = 0;
    rc_pauses = 0; satb_pauses = 0; unfinished_lazy_pauses = 0;
    young_reclaimed = 0; old_reclaimed = 0; satb_reclaimed = 0;
    young_evacuated = 0; mature_evacuated = 0; clean_young_blocks = 0;
    stuck_objects = 0; mature_objects_seen = 0;
    remset_entries = 0; remset_stale = 0; satb_traces_completed = 0;
    phase_inc_ns = 0.0; phase_dec_ns = 0.0; phase_sweep_ns = 0.0;
    phase_evac_ns = 0.0; phase_satb_ns = 0.0 }

let to_alist t =
  [ ("wb_fast", Float.of_int t.wb_fast);
    ("wb_slow", Float.of_int t.wb_slow);
    ("increments", Float.of_int t.increments);
    ("decrements", Float.of_int t.decrements);
    ("rc_pauses", Float.of_int t.rc_pauses);
    ("satb_pauses", Float.of_int t.satb_pauses);
    ("unfinished_lazy_pauses", Float.of_int t.unfinished_lazy_pauses);
    ("young_reclaimed", Float.of_int t.young_reclaimed);
    ("old_reclaimed", Float.of_int t.old_reclaimed);
    ("satb_reclaimed", Float.of_int t.satb_reclaimed);
    ("young_evacuated", Float.of_int t.young_evacuated);
    ("mature_evacuated", Float.of_int t.mature_evacuated);
    ("clean_young_blocks", Float.of_int t.clean_young_blocks);
    ("stuck_objects", Float.of_int t.stuck_objects);
    ("mature_objects_seen", Float.of_int t.mature_objects_seen);
    ("remset_entries", Float.of_int t.remset_entries);
    ("remset_stale", Float.of_int t.remset_stale);
    ("satb_traces_completed", Float.of_int t.satb_traces_completed);
    ("phase_inc_ns", t.phase_inc_ns);
    ("phase_dec_ns", t.phase_dec_ns);
    ("phase_sweep_ns", t.phase_sweep_ns);
    ("phase_evac_ns", t.phase_evac_ns);
    ("phase_satb_ns", t.phase_satb_ns) ]
