type t = { mutable cpu : float; mutable critical : float }

let create () = { cpu = 0.0; critical = 0.0 }

let add t ~threads ~frontier ~cost_ns =
  let par = if frontier < 1 then 1 else if frontier > threads then threads else frontier in
  t.cpu <- t.cpu +. cost_ns;
  t.critical <- t.critical +. (cost_ns /. Float.of_int par)

let add_parallel t ~threads ~cost_ns = add t ~threads ~frontier:max_int ~cost_ns
let cpu_ns t = t.cpu
let critical_ns t = t.critical

let reset t =
  t.cpu <- 0.0;
  t.critical <- 0.0
