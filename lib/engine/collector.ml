exception Unsupported of string

type pressure = Young | Full | Emergency

let pressure_name = function
  | Young -> "young"
  | Full -> "full"
  | Emergency -> "emergency"

type rc_discipline = Exact_rc | Pinned_rc

type introspection = {
  rc_discipline : rc_discipline;
  counts_exact : unit -> bool;
  pending_ref_ids : unit -> int list;
  remset_entries : unit -> (int * int) list;
  trace_active : unit -> bool;
  expect_clear_marks : unit -> bool;
}

let no_introspection =
  { rc_discipline = Pinned_rc;
    counts_exact = (fun () -> false);
    pending_ref_ids = (fun () -> []);
    remset_entries = (fun () -> []);
    trace_active = (fun () -> false);
    expect_clear_marks = (fun () -> false) }

type t = {
  name : string;
  on_alloc : Repro_heap.Obj_model.t -> unit;
  on_write : Repro_heap.Obj_model.t -> int -> int -> unit;
  write_extra_ns : float;
  read_extra_ns : float;
  poll : unit -> unit;
  collect_for_alloc : pressure -> unit;
  conc_active : unit -> int;
  conc_run : budget_ns:float -> float;
  conc_backlog : unit -> int;
  on_finish : unit -> unit;
  stats : unit -> (string * float) list;
  introspect : introspection;
}

type factory = Sim.t -> Repro_heap.Heap.t -> roots:int array -> t
