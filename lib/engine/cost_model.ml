type t = {
  cores : int;
  mutator_threads : int;
  gc_threads : int;
  alloc_fast_ns : float;
  alloc_slow_ns : float;
  block_acquire_ns : float;
  buffer_contention_ns : float;
  zero_ns_per_byte : float;
  read_ns : float;
  write_ns : float;
  wb_fast_ns : float;
  wb_slow_ns : float;
  lvb_ns : float;
  satb_wb_ns : float;
  card_wb_ns : float;
  root_scan_ns : float;
  inc_ns : float;
  dec_ns : float;
  trace_obj_ns : float;
  copy_ns_per_byte : float;
  sweep_line_ns : float;
  sweep_block_ns : float;
  remset_entry_ns : float;
  pause_base_ns : float;
  conc_copy_interference : float;
  conc_efficiency : float;
}

let default =
  { cores = 32;
    mutator_threads = 8;
    gc_threads = 4;
    alloc_fast_ns = 6.0;
    alloc_slow_ns = 60.0;
    block_acquire_ns = 300.0;
    buffer_contention_ns = 2.0;
    zero_ns_per_byte = 0.03;
    read_ns = 1.0;
    write_ns = 1.5;
    (* Field-logging barrier: ~1.6% mutator overhead (§3.4, Table 7). *)
    wb_fast_ns = 0.45;
    wb_slow_ns = 8.0;
    (* LVB filters every reference load; reads are ~15x more frequent
       than stores, making its aggregate cost ~5x that of a store barrier
       (§2.2): ~8% of mutator time against the field barrier's 1.6%. *)
    lvb_ns = 0.5;
    satb_wb_ns = 0.35;
    card_wb_ns = 0.5;
    root_scan_ns = 12.0;
    inc_ns = 7.0;
    dec_ns = 8.0;
    trace_obj_ns = 50.0;
    copy_ns_per_byte = 0.45;
    sweep_line_ns = 6.0;
    sweep_block_ns = 350.0;
    remset_entry_ns = 8.0;
    pause_base_ns = 18_000.0;
    conc_copy_interference = 0.35;
    conc_efficiency = 0.4 }
