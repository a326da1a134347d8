type t = { name : string; real : Runner.result; ideal : Runner.result }

let against ~run contenders =
  let ideal = run Repro_collectors.Ideal.factory in
  List.map (fun (name, factory) -> { name; real = run factory; ideal })
    contenders

let ok t = t.real.ok && t.ideal.ok
let collector t = if t.real.ok then t.real.collector else t.name

let total_cpu (r : Runner.result) = r.mutator_cpu_ns +. r.gc_cpu_ns

let distilled_wall_ns t = t.real.wall_ns -. t.ideal.wall_ns
let distilled_cpu_ns t = total_cpu t.real -. total_cpu t.ideal
let distilled_stall_ns t = t.real.alloc_stall_ns -. t.ideal.alloc_stall_ns
let barrier_ns t = t.real.barrier_cpu_ns -. t.ideal.barrier_cpu_ns

let concurrent_cpu_ns t =
  (t.real.gc_cpu_ns -. t.real.stw_cpu_ns)
  -. (t.ideal.gc_cpu_ns -. t.ideal.stw_cpu_ns)

let wall_overhead_pct t =
  if t.ideal.wall_ns > 0.0 then 100.0 *. distilled_wall_ns t /. t.ideal.wall_ns
  else 0.0

let cpu_overhead_pct t =
  let base = total_cpu t.ideal in
  if base > 0.0 then 100.0 *. distilled_cpu_ns t /. base else 0.0
