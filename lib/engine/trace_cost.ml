(* The accumulators are an all-float record of their own: OCaml stores
   an all-float record's fields flat, so each charge updates them in
   place, where a float field of the mixed [t] would box every store. *)
type acc = { mutable cpu : float; mutable critical : float }

type t = { cost : Cost_model.t; gc_threads : int; acc : acc }

let create cost ~gc_threads = { cost; gc_threads; acc = { cpu = 0.0; critical = 0.0 } }
let cost t = t.cost

let[@inline] add t ~frontier ~cost_ns =
  let par =
    if frontier < 1 then 1 else if frontier > t.gc_threads then t.gc_threads else frontier
  in
  t.acc.cpu <- t.acc.cpu +. cost_ns;
  t.acc.critical <- t.acc.critical +. (cost_ns /. Float.of_int par)

let[@inline] add_parallel t ~cost_ns = add t ~frontier:max_int ~cost_ns
let cpu_ns t = t.acc.cpu
let critical_ns t = t.acc.critical
