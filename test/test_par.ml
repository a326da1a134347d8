(* Tests for the domain pool's parallel-for: the job handoff across real
   worker domains (force_spawn lifts the single-core cap so CI actually
   crosses domains), exception propagation, and nesting. *)

module Par = Repro_par.Par

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A pool that genuinely crosses domains even on a single-core CI host. *)
let with_spawned_pool f =
  let pool = Par.Pool.create ~force_spawn:true ~threads:4 () in
  check "force_spawn spawned workers" true (Par.Pool.workers pool = 3);
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

(* Busy for [us] microseconds, so that a packet is still running when
   the other lanes look for work. *)
let busy_for us =
  let until = Unix.gettimeofday () +. (us *. 1e-6) in
  while Unix.gettimeofday () < until do
    ()
  done

(* Back-to-back jobs of 0-4 packets. Most follow the previous one at
   once, so workers still spinning pick them up; every 64th waits 2 ms
   first, well past the spin budget (~0.12 ms at 30 ns per cpu_relax), so
   the workers have parked and the job must wake them. Each packet counts
   its own run: by the time a job returns, each of its packets must have
   run exactly once, and at the end no count may have moved since. *)
let test_handoff_stress () =
  with_spawned_pool (fun pool ->
      let jobs = 3000 in
      let runs = Array.init (jobs * 4) (fun _ -> Atomic.make 0) in
      let check_job job =
        for i = 0 to 3 do
          let n = Atomic.get runs.((job * 4) + i) in
          if n <> if i < job mod 5 then 1 else 0 then
            Alcotest.failf "job %d packet %d ran %d times" job i n
        done
      in
      for job = 0 to jobs - 1 do
        if job mod 64 = 63 then Unix.sleepf 0.002;
        Par.parallel_for pool ~packets:(job mod 5) (fun i ->
            busy_for 10.0;
            Atomic.incr runs.((job * 4) + i));
        check_job job
      done;
      for job = 0 to jobs - 1 do
        check_job job
      done)

(* Packets 9 and 41 both raise: every packet still runs, and the one
   re-raised is the lowest index's, inline and across domains alike. *)
let test_exception_lowest_index_first () =
  let raised pool =
    let ran = Atomic.make 0 in
    let seen =
      try
        Par.parallel_for pool ~packets:64 (fun i ->
            Atomic.incr ran;
            if i = 9 || i = 41 then failwith (string_of_int i));
        None
      with Failure msg -> Some msg
    in
    check "raised the lowest index" true (seen = Some "9");
    check_int "every packet ran" 64 (Atomic.get ran)
  in
  raised Par.Pool.serial;
  with_spawned_pool raised

let test_nested_runs_inline () =
  with_spawned_pool (fun pool ->
      (* A packet body that re-enters the pool must run the inner packets
         itself rather than deadlock or hand them to another domain, even
         while the pool has idle workers (two outer packets, four lanes). *)
      for _ = 1 to 100 do
        let outer = Array.make 2 (-1) and inner = Array.make_matrix 2 3 (-1) in
        Par.parallel_for pool ~packets:2 (fun i ->
            outer.(i) <- (Domain.self () :> int);
            Par.parallel_for pool ~packets:3 (fun j ->
                busy_for 10.0;
                inner.(i).(j) <- (Domain.self () :> int)));
        check "nested packets ran on their outer packet's domain" true
          (Array.for_all2 (fun d a -> Array.for_all (( = ) d) a) outer inner)
      done)

let suite =
  [ ( "par:pool",
      [ Alcotest.test_case "handoff stress, spinning and parked" `Quick
          test_handoff_stress;
        Alcotest.test_case "exception re-raised lowest index first" `Quick
          test_exception_lowest_index_first;
        Alcotest.test_case "nested runs go inline" `Quick test_nested_runs_inline ] )
  ]
