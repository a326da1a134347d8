(* Tests for the domain pool's parallel-for: ordered-merge determinism
   across real worker domains (force_spawn lifts the single-core cap so
   CI actually crosses domains), exception propagation, and nesting. *)

module Par = Repro_par.Par

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- ordered merge across real domains --------------------------------- *)

(* A pool that genuinely crosses domains even on a single-core CI host. *)
let with_spawned_pool f =
  let pool = Par.Pool.create ~force_spawn:true ~threads:4 () in
  check "force_spawn spawned workers" true (Par.Pool.workers pool = 3);
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let merge_transcript pool ~packets =
  (* f returns a pure function of the packet index; the transcript of
     merge calls must come back in ascending index order regardless of
     which domain ran which packet. *)
  let log = ref [] in
  Par.map_merge pool ~packets
    ~f:(fun i -> i * i)
    ~merge:(fun i v -> log := (i, v) :: !log);
  List.rev !log

let test_merge_order_matches_serial () =
  with_spawned_pool (fun pool ->
      List.iter
        (fun packets ->
          let serial = merge_transcript Par.Pool.serial ~packets in
          let parallel = merge_transcript pool ~packets in
          check
            (Printf.sprintf "%d packets: parallel merge = serial merge" packets)
            true (serial = parallel);
          check_int "all packets merged" packets (List.length parallel))
        [ 0; 1; 2; 3; 16; 257 ])

let test_exception_lowest_index_first () =
  with_spawned_pool (fun pool ->
      let merged = ref [] in
      let seen =
        try
          Par.map_merge pool ~packets:64
            ~f:(fun i -> if i = 9 || i = 41 then failwith (string_of_int i) else i)
            ~merge:(fun i _ -> merged := i :: !merged);
          None
        with Failure msg -> Some msg
      in
      (* Both packets 9 and 41 raise; the re-raise must pick the lowest
         index, and merges stop there — packets 0-8 merged, nothing after. *)
      check "raised" true (seen = Some "9");
      check "merged prefix before the failing packet" true
        (List.rev !merged = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]))

let test_nested_runs_inline () =
  with_spawned_pool (fun pool ->
      (* A packet body that re-enters the pool must run inline rather than
         deadlock; the nested phase still merges in order. *)
      let out = ref [] in
      Par.map_merge pool ~packets:4
        ~f:(fun i ->
          let inner = ref 0 in
          Par.map_merge pool ~packets:3
            ~f:(fun j -> j + 1)
            ~merge:(fun _ v -> inner := (10 * !inner) + v);
          (i, !inner))
        ~merge:(fun _ v -> out := v :: !out);
      check "nested phases completed deterministically" true
        (List.rev !out = [ (0, 123); (1, 123); (2, 123); (3, 123) ]))

let suite =
  [ ( "par:merge",
      [ Alcotest.test_case "merge order matches serial across domains" `Quick
          test_merge_order_matches_serial;
        Alcotest.test_case "exception re-raised lowest index first" `Quick
          test_exception_lowest_index_first;
        Alcotest.test_case "nested runs go inline" `Quick test_nested_runs_inline ] )
  ]
