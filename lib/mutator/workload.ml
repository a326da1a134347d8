type request = {
  count : int;
  allocs_per_request : int;
  work_ns_per_request : float;
  target_utilization : float;
}

type t = {
  name : string;
  min_heap_bytes : int;
  total_alloc_bytes : int;
  alloc_rate_mb_s : float;
  mean_object_bytes : int;
  large_fraction : float;
  survival_rate : float;
  reads_per_alloc : int;
  extra_mutations : float;
  churn : int;
  cyclic_fraction : float;
  chain_fraction : float;
  linked_list_len : int;
  frag_classes : (int * float) list;
  phase_allocs : int;
  phase_churn : int;
  request : request option;
  paper_min_heap_mb : int;
  paper_alloc_mb_s : int;
  paper_survival_pct : int;
}

let nursery_ring_slots = 16
let mature_fill_fraction = 0.55

(* Rough intrinsic cost of one allocation step (allocation, initializing
   stores, reads) that already counts toward mutator time. *)
let intrinsic_ns_per_alloc = 25.0

(* [@inline] so the per-allocation caller receives the float unboxed
   (the build has no flambda). *)
let[@inline] extra_work_ns t ~size =
  let ns_per_byte = 1000.0 /. t.alloc_rate_mb_s in
  Float.max 0.0 ((Float.of_int size *. ns_per_byte) -. intrinsic_ns_per_alloc)

let nominal_service_ns t r =
  let per_alloc =
    intrinsic_ns_per_alloc +. extra_work_ns t ~size:t.mean_object_bytes
  in
  r.work_ns_per_request +. (Float.of_int r.allocs_per_request *. per_alloc)
