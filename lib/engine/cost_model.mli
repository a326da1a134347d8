(** The virtual-time cost model.

    Every simulated operation is charged a cost in virtual nanoseconds.
    The constants below are calibrated against the measurements the paper
    reports — e.g. field loads outnumber stores roughly 15:1 (64.3/µs vs
    4.3/µs, §2.2), the field-logging write barrier costs ~1.6% of mutator
    time, read barriers are about five times as expensive as an object
    remembering barrier — so that *relative* results reproduce the paper's
    shape. Absolute values are arbitrary but fixed.

    The core model: the machine has [cores] hardware threads shared by
    [mutator_threads] and GC. Stop-the-world work is divided among
    [gc_threads], limited by the parallelism available in the work itself
    (see {!Trace_cost}); concurrent GC occupies cores, slowing the
    mutator when the machine is saturated. *)

type t = {
  cores : int;
  mutator_threads : int;
  gc_threads : int;  (** parallel STW collector threads *)
  (* Mutator operations. *)
  alloc_fast_ns : float;
  alloc_slow_ns : float;  (** per hole search / slow path *)
  block_acquire_ns : float;
  buffer_contention_ns : float;  (** extra per block acquire, per buffer entry *)
  zero_ns_per_byte : float;
  read_ns : float;  (** plain field load *)
  write_ns : float;  (** plain field store *)
  (* Barriers. *)
  wb_fast_ns : float;  (** field-logging barrier fast path (unlogged check) *)
  wb_slow_ns : float;  (** logging slow path (synchronized) *)
  lvb_ns : float;  (** loaded value barrier, per reference load *)
  satb_wb_ns : float;  (** separate SATB write barrier (Shenandoah) *)
  card_wb_ns : float;  (** G1 card/remset write barrier *)
  (* Collector work. *)
  root_scan_ns : float;  (** per root slot *)
  inc_ns : float;  (** per RC increment applied *)
  dec_ns : float;  (** per RC decrement applied *)
  trace_obj_ns : float;  (** per object scanned during a trace *)
  copy_ns_per_byte : float;
  sweep_line_ns : float;
  sweep_block_ns : float;
  remset_entry_ns : float;
  pause_base_ns : float;  (** fixed safepoint synchronization cost *)
  (* Memory-system interference: concurrent copying consumes cache and
     DRAM bandwidth (§1), charged as a mutator slowdown fraction while
     concurrent evacuation is running. *)
  conc_copy_interference : float;
  (* Concurrent GC threads accomplish less per CPU-nanosecond than
     stop-the-world ones (synchronization with a running mutator, barrier
     traffic, cache contention): each unit of concurrent work costs
     [1 / conc_efficiency] CPU-ns. This is what makes concurrent cycles
     long relative to allocation (§1, Table 1) and shows up as the extra
     cycles in Figure 7b. *)
  conc_efficiency : float;
}

(** The default calibration (a 16-core/32-thread Zen 3-like machine, 8
    mutator threads, 4 STW GC threads). *)
val default : t
