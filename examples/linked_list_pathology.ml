(* The tracing scalability pathology (§2.1, §5.2, avrora).

   A long singly-linked live list has a trace frontier of width one: no
   matter how many GC threads a tracing collector has, it walks the list
   serially on EVERY collection cycle. Reference counting only pays for
   the list when it dies. This example measures GC CPU time while the
   list length grows, under a tracing collector (Parallel, 4 GC threads)
   and under LXR.

   Run with: dune exec examples/linked_list_pathology.exe *)

open Repro_engine
open Repro_heap

let run ~factory ~list_len =
  let heap = Heap.create (Heap_config.make ~heap_bytes:(4 * 1024 * 1024) ()) in
  let sim = Sim.create Cost_model.default in
  let api = Api.create sim heap factory in
  (* Build the live list. *)
  let head = ref (Api.alloc_fast api ~size:32 ~nfields:1) in
  Api.set_root api 0 !head.id;
  for _ = 2 to list_len do
    let node = Api.alloc_fast api ~size:32 ~nfields:1 in
    Api.write api node 0 !head.id;
    Api.set_root api 0 node.id;
    head := node
  done;
  Sim.reset_measurement sim;
  let measure_start = Sim.now sim in
  (* Churn garbage: every collection must re-traverse the list. *)
  for _ = 1 to 120_000 do
    ignore (Api.alloc_fast api ~size:64 ~nfields:2)
  done;
  Api.finish api;
  let wall = Sim.now sim -. measure_start in
  (Sim.gc_cpu sim /. 1e6, Sim.stw_wall sim /. 1e6, wall /. 1e6)

let () =
  Printf.printf
    "GC cost of churning 7.5 MB of garbage while a live list of N nodes exists\n\n";
  Printf.printf "%10s | %25s | %25s\n" "list nodes" "Parallel (tracing)"
    "LXR (reference counting)";
  Printf.printf "%10s | %10s %14s | %10s %14s\n" "" "gc cpu ms" "stw ms"
    "gc cpu ms" "stw ms";
  List.iter
    (fun n ->
      let t_cpu, t_stw, _ =
        run ~factory:Repro_collectors.Mark_sweep.parallel ~list_len:n
      in
      let l_cpu, l_stw, _ = run ~factory:Repro_lxr.Lxr.factory ~list_len:n in
      Printf.printf "%10d | %10.2f %14.2f | %10.2f %14.2f\n%!" n t_cpu t_stw l_cpu
        l_stw)
    [ 100; 2_000; 8_000; 20_000; 40_000 ];
  Printf.printf
    "\nThe tracing collector's cost grows with the list (it re-walks it,\n\
     serially, every cycle); LXR's occasional SATB backup trace pays the\n\
     cost only rarely — the paper's avrora result (§5.2) in isolation.\n"
