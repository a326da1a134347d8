(* Unit and property tests for Repro_util. *)

open Repro_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_pct msg v = Alcotest.(check (option int)) msg (Some v)

(* --- Prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  check "streams differ" true (!same < 4)

let test_prng_copy_independent () =
  let a = Prng.create 3 in
  ignore (Prng.next a);
  let b = Prng.copy a in
  check_int "copy continues identically" (Prng.next a) (Prng.next b)

let test_prng_split () =
  let a = Prng.create 5 in
  let child = Prng.split a in
  (* The child stream should not be a prefix of the parent stream. *)
  let parent_vals = List.init 16 (fun _ -> Prng.next a) in
  let child_vals = List.init 16 (fun _ -> Prng.next child) in
  check "split independent" true (parent_vals <> child_vals)

let test_prng_int_bounds () =
  let p = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    check "bound" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let p = Prng.create 1 in
  let bad = Invalid_argument "Prng.int: bound must be positive" in
  Alcotest.check_raises "zero bound" bad (fun () -> ignore (Prng.int p 0));
  Alcotest.check_raises "negative bound" bad (fun () -> ignore (Prng.int p (-5)))

let test_prng_bool_extremes () =
  let p = Prng.create 13 in
  check "p=0 never" false (Prng.bool p 0.0);
  check "p=1 always" true (Prng.bool p 1.0)

let test_prng_bool_rate () =
  let p = Prng.create 17 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bool p 0.3 then incr hits
  done;
  let rate = Float.of_int !hits /. Float.of_int n in
  check "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_prng_exponential_mean () =
  let p = Prng.create 19 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:100.0
  done;
  let mean = !sum /. Float.of_int n in
  check "exponential mean" true (mean > 95.0 && mean < 105.0)

let test_prng_geometric_size () =
  let p = Prng.create 23 in
  for _ = 1 to 1000 do
    let v = Prng.geometric_size p ~mean:64 ~min:16 ~max:256 in
    check "clamped" true (v >= 16 && v <= 256)
  done;
  check_int "mean<=min gives min" 32 (Prng.geometric_size p ~mean:16 ~min:32 ~max:64)

let test_prng_pick () =
  let p = Prng.create 29 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    let v = Prng.pick p arr in
    check "member" true (Array.exists (fun x -> x = v) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick p [||]))

(* SplitMix64 pinned at seed 42: every simulated run depends on this
   exact stream, so a representation change must reproduce it bit for
   bit. Each sequence starts from a fresh generator. *)
let test_prng_pinned_stream () =
  let first n f =
    let p = Prng.create 42 in
    List.init n (fun _ -> f p)
  in
  let ints = Alcotest.(check (list int)) in
  let bits = Alcotest.(check (list int64)) in
  ints "next"
    [ 4456085495900499605; 2949826092126892291; 527597730035375954;
      1737512041830867860; 701532786141963250; 2180923070380825350;
      4028864712777624925; 933993271705612196 ]
    (first 8 Prng.next);
  ints "int 1000" [ 605; 291; 954; 860; 250; 350; 925; 196 ]
    (first 8 (fun p -> Prng.int p 1000));
  bits "float 1.0"
    [ 0x3feeeb991317f5b7L; 0x3fe477f199d93379L; 0x3fbd499d5c4c3e7dL;
      0x3fd81ce1ff0e4ae4L; 0x3fc378b0b4489048L; 0x3fde4431fa3c80dbL;
      0x3febf4b38e229bb7L; 0x3fc9ec6bdd3d3c5fL ]
    (first 8 (fun p -> Int64.bits_of_float (Prng.float p 1.0)));
  Alcotest.(check (list bool)) "bool 0.3"
    [ false; false; true; false; true; false; false; true ]
    (first 8 (fun p -> Prng.bool p 0.3));
  bits "exponential 100"
    [ 0x400b7550e0cdf9c0L; 0x404657a53eeffbdeL; 0x406b19a5a083a119L;
      0x4058674a9da1ed35L; 0x406789dc16f550b0L; 0x4052b89c26986dd3L;
      0x402b05934a174db2L; 0x4063f603bd6c0ee0L ]
    (first 8 (fun p -> Int64.bits_of_float (Prng.exponential p ~mean:100.0)));
  ints "geometric_size" [ 18; 52; 191; 95; 168; 76; 26; 145 ]
    (first 8 (fun p -> Prng.geometric_size p ~mean:97 ~min:16 ~max:8192));
  let p = Prng.create 42 in
  let child = Prng.split p in
  ints "split child"
    [ 1720932211098677764; 3795357200955883605; 4359879407727870898;
      1242533817266198696 ]
    (List.init 4 (fun _ -> Prng.next child));
  let p = Prng.create 42 in
  ignore (Prng.next p);
  let c = Prng.copy p in
  ints "copy"
    [ 2949826092126892291; 527597730035375954; 1737512041830867860;
      701532786141963250 ]
    (List.init 4 (fun _ -> Prng.next c))

(* Draws that return an immediate allocate nothing, even without
   cross-module inlining. [float] and [exponential] are left out: their
   result is boxed at a non-inlined call site. *)
let test_prng_draws_allocate_nothing () =
  let p = Prng.create 42 in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Prng.next p))
  done;
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Prng.int p 1000))
  done;
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Prng.bool p 0.3))
  done;
  for _ = 1 to n do
    ignore
      (Sys.opaque_identity (Prng.geometric_size p ~mean:97 ~min:16 ~max:8192))
  done;
  let words = Gc.minor_words () -. before in
  check "under 10 words for 40,000 draws" true (words < 10.0)

(* --- Vec ---------------------------------------------------------------- *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 1 to 100 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  for i = 100 downto 1 do
    check_int "pop order" i (Vec.pop v)
  done;
  check "empty" true (Vec.is_empty v)

let test_vec_growth () =
  let v = Vec.create ~capacity:1 () in
  for i = 0 to 9999 do
    Vec.push v i
  done;
  check_int "get first" 0 (Vec.get v 0);
  check_int "get last" 9999 (Vec.get v 9999)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop (Vec.create ())))

let test_vec_clear_keeps_storage () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v);
  Vec.push v 9;
  check_int "reusable" 9 (Vec.get v 0)

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Vec.iter (fun x -> seen := x :: !seen) v;
  Alcotest.(check (list int)) "iter order" [ 4; 3; 2; 1 ] !seen

let test_vec_append_sort () =
  let a = Vec.of_list [ 3; 1 ] and b = Vec.of_list [ 2 ] in
  Vec.append a b;
  Vec.sort compare a;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Vec.to_list a)

(* The heap sort allocates nothing, however long the vector, and leaves
   the storage past the length alone. *)
let test_vec_sort_in_place () =
  let v = Vec.create () in
  for i = 0 to 9_999 do
    Vec.push v ((i * 7919) mod 10_007)
  done;
  Vec.push v (-1);
  ignore (Vec.pop v);
  let before = Gc.minor_words () in
  Vec.sort Int.compare v;
  let words = Gc.minor_words () -. before in
  check "under 10 words for 10,000 elements" true (words < 10.0);
  let sorted = ref true in
  for i = 1 to Vec.length v - 1 do
    if Vec.get v (i - 1) > Vec.get v i then sorted := false
  done;
  check "sorted" true !sorted;
  check "stale slot left out" false (Vec.exists (fun x -> x = -1) v)

let test_vec_exists () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check "exists" true (Vec.exists (fun x -> x = 2) v);
  check "not exists" false (Vec.exists (fun x -> x = 7) v)

let vec_roundtrip_prop =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let vec_sort_prop =
  QCheck.Test.make ~name:"vec sort = List.sort" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.sort compare v;
      Vec.to_list v = List.sort compare xs)

let vec_push_pop_prop =
  QCheck.Test.make ~name:"vec push then pop reverses" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      let out = List.init (Vec.length v) (fun _ -> Vec.pop v) in
      out = List.rev xs)

(* --- Int_array ----------------------------------------------------------- *)

(* [Int_array.blit] against [Array.blit], within one array (overlapping
   either way) and between two; an out-of-range call raises in both. *)
let int_array_blit_prop =
  QCheck.Test.make ~name:"int_array blit matches Array.blit" ~count:300
    QCheck.(
      quad (int_range 0 40) (int_range (-2) 42) (int_range (-2) 42)
        (int_range (-2) 42))
    (fun (n, src_pos, dst_pos, len) ->
      let run blit same =
        let src = Array.init n (fun i -> 7 * i) in
        let dst = if same then src else Array.make n (-1) in
        match blit src src_pos dst dst_pos len with
        | () -> Some dst
        | exception Invalid_argument _ -> None
      in
      List.for_all
        (fun same -> run Int_array.blit same = run Array.blit same)
        [ true; false ])

let test_int_array_grow () =
  let b = Int_array.grow [| 1; 2; 3 |] 7 (-1) in
  check "doubled until it fits, tail filled" true
    (b = [| 1; 2; 3; -1; -1; -1; -1; -1; -1; -1; -1; -1 |]);
  check_int "empty grows from one" 4 (Array.length (Int_array.grow [||] 3 0))

(* --- Stats --------------------------------------------------------------- *)

let test_stats_mean () = check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25 interpolated" 2.0 (Stats.percentile xs 25.0)

let test_stats_percentile_unsorted () =
  check_float "handles unsorted" 3.0 (Stats.percentile [ 5.0; 1.0; 3.0; 2.0; 4.0 ] 50.0)

let test_stats_stddev () =
  check_float "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  check_float "single" 0.0 (Stats.stddev [ 5.0 ])

let test_stats_confidence () =
  check_float "ci single" 0.0 (Stats.confidence95 [ 5.0 ]);
  let ci = Stats.confidence95 [ 1.0; 2.0; 3.0 ] in
  check "ci positive" true (ci > 0.0);
  check_float "fraction" (ci /. 2.0) (Stats.confidence95_fraction [ 1.0; 2.0; 3.0 ])

let stats_percentile_monotone_prop =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
              (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let stats_geomean_le_mean_prop =
  QCheck.Test.make ~name:"geomean <= mean (AM-GM)" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_range 0.001 1000.0))
    (fun xs -> Stats.geomean xs <= Stats.mean xs +. 1e-6)

(* --- Histogram ----------------------------------------------------------- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  Histogram.record h 100;
  Histogram.record h 200;
  Histogram.record h 300;
  check_int "count" 3 (Histogram.count h);
  check_int "total" 600 (Histogram.total h)

let test_histogram_percentile_exact_small () =
  (* Values below the sub-bucket count are exact. *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5 ];
  check_pct "p50 small exact" 3 (Histogram.percentile_opt h 50.0);
  check_pct "p100" 5 (Histogram.percentile_opt h 100.0)

let test_histogram_percentile_precision () =
  let h = Histogram.create () in
  for v = 1000 to 2000 do
    Histogram.record h v
  done;
  let p50 = Option.get (Histogram.percentile_opt h 50.0) in
  let err = Float.abs (Float.of_int p50 -. 1500.0) /. 1500.0 in
  check "p50 within 2%" true (err < 0.02)

let test_histogram_clamps_below_one () =
  let h = Histogram.create () in
  Histogram.record h 0;
  Histogram.record h (-5);
  check_int "count" 2 (Histogram.count h);
  check_pct "p100 clamped" 1 (Histogram.percentile_opt h 100.0)

let test_histogram_max_mean () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 10; 20; 30 ];
  check_pct "max" 30 (Histogram.percentile_opt h 100.0);
  Alcotest.(check (option (float 1e-9))) "mean" (Some 20.0) (Histogram.mean_opt h);
  Alcotest.(check (option (float 1e-9))) "empty mean" None
    (Histogram.mean_opt (Histogram.create ()))

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10;
  Histogram.record b 20;
  Histogram.merge ~into:a b;
  check_int "merged count" 2 (Histogram.count a);
  check_pct "merged max" 20 (Histogram.percentile_opt a 100.0)

let test_histogram_clear () =
  let h = Histogram.create () in
  Histogram.record h 42;
  Histogram.clear h;
  check_int "cleared" 0 (Histogram.count h);
  check "empty percentile" true (Histogram.percentile_opt h 50.0 = None)

let test_histogram_curve () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4 ];
  let curve = List.map (Histogram.percentile_opt h) [ -1.0; 0.0; 100.0; 101.0 ] in
  check "curve points" true (curve = [ None; Some 1; Some 4; None ])

let histogram_percentile_bounds_prop =
  QCheck.Test.make ~name:"histogram percentile within recorded range" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 1 1_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let lo = List.fold_left min max_int xs and hi = List.fold_left max 0 xs in
      let p v = Option.get (Histogram.percentile_opt h v) in
      (* Bucketing gives ~1.6% relative error. *)
      Float.of_int (p 0.0) >= Float.of_int lo *. 0.97
      && Float.of_int (p 100.0) <= Float.of_int hi *. 1.03)

let histogram_monotone_prop =
  QCheck.Test.make ~name:"histogram percentile monotone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 1 1_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let ps = [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ] in
      let vals = List.map (fun p -> Option.get (Histogram.percentile_opt h p)) ps in
      List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 5) vals) (List.tl vals))

(* --- Bits ---------------------------------------------------------------- *)

let test_bits_log2 () =
  check_int "log2 1" 0 (Bits.log2 1);
  check_int "log2 2" 1 (Bits.log2 2);
  check_int "log2 1023" 9 (Bits.log2 1023);
  check_int "log2 1024" 10 (Bits.log2 1024)

let test_bits_clz63 () =
  check_int "clz 1" 62 (Bits.clz63 1);
  (* max_int is 2^62 - 1: its top bit is bit 61, one leading zero. *)
  check_int "clz max" 1 (Bits.clz63 max_int)

let test_bits_pow2 () =
  check "1 is pow2" true (Bits.is_power_of_two 1);
  check "32768 is pow2" true (Bits.is_power_of_two 32768);
  check "3 not" false (Bits.is_power_of_two 3);
  check "0 not" false (Bits.is_power_of_two 0)

let test_bits_round_up () =
  check_int "exact" 32 (Bits.round_up 32 16);
  check_int "up" 48 (Bits.round_up 33 16);
  check_int "zero" 0 (Bits.round_up 0 16)

(* --- Table ---------------------------------------------------------------- *)

let test_table_render () =
  let s =
    Table.render ~title:"T" ~header:[ "a"; "b" ]
      ~rows:[ [ "x"; "1" ]; [ "yy"; "22" ] ] ()
  in
  check "has title" true (String.length s > 0 && s.[0] = 'T');
  check "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && l.[0] = '|'));
  Alcotest.(check string) "markdown" "| a | b |\n| --- | --- |\n| x | 1 |\n"
    (Table.markdown ~header:[ "a"; "b" ] ~rows:[ [ "x"; "1" ] ])

let test_table_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged rows")
    (fun () ->
      ignore (Table.render ~title:"T" ~header:[ "a"; "b" ] ~rows:[ [ "x" ] ] ()))

(* --- Ascii_chart ------------------------------------------------------------ *)

let test_chart_renders () =
  let s =
    Ascii_chart.render ~title:"T" ~x_label:"x" ~y_label:"y"
      ~series:[ ("a", [ (0.0, 1.0); (1.0, 2.0) ]); ("b", [ (0.5, 1.5) ]) ]
      ()
  in
  check "title" true (String.length s > 0 && s.[0] = 'T');
  check "legend a" true (String.length s > 0);
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "glyph a" true (contains "*=a");
  check "glyph b" true (contains "o=b");
  check "axis" true (contains "+-")

let test_chart_log_scale () =
  let s =
    Ascii_chart.render ~log_y:true ~title:"L" ~x_label:"x" ~y_label:"y"
      ~series:[ ("a", [ (0.0, 1.0); (1.0, 1000.0) ]) ]
      ()
  in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "log annotated" true (contains "log scale")

let test_chart_errors () =
  check "empty raises" true
    (try
       ignore (Ascii_chart.render ~title:"T" ~x_label:"x" ~y_label:"y" ~series:[] ());
       false
     with Invalid_argument _ -> true);
  check "nonpositive log raises" true
    (try
       ignore
         (Ascii_chart.render ~log_y:true ~title:"T" ~x_label:"x" ~y_label:"y"
            ~series:[ ("a", [ (0.0, 0.0) ]) ] ());
       false
     with Invalid_argument _ -> true)

let test_chart_single_point () =
  (* Degenerate spans must not divide by zero. *)
  let s =
    Ascii_chart.render ~title:"P" ~x_label:"x" ~y_label:"y"
      ~series:[ ("a", [ (5.0, 5.0) ]) ]
      ()
  in
  check "renders" true (String.length s > 10)

(* --- Suite ----------------------------------------------------------------- *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ ( "util:prng",
      [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
        Alcotest.test_case "copy" `Quick test_prng_copy_independent;
        Alcotest.test_case "split" `Quick test_prng_split;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
        Alcotest.test_case "bool extremes" `Quick test_prng_bool_extremes;
        Alcotest.test_case "bool rate" `Quick test_prng_bool_rate;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        Alcotest.test_case "geometric size" `Quick test_prng_geometric_size;
        Alcotest.test_case "pick" `Quick test_prng_pick;
        Alcotest.test_case "pinned stream" `Quick test_prng_pinned_stream;
        Alcotest.test_case "draws allocate nothing" `Quick
          test_prng_draws_allocate_nothing ] );
    ( "util:vec",
      [ Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
        Alcotest.test_case "growth" `Quick test_vec_growth;
        Alcotest.test_case "bounds" `Quick test_vec_bounds;
        Alcotest.test_case "clear" `Quick test_vec_clear_keeps_storage;
        Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
        Alcotest.test_case "append/sort" `Quick test_vec_append_sort;
        Alcotest.test_case "sort in place" `Quick test_vec_sort_in_place;
        Alcotest.test_case "exists" `Quick test_vec_exists ]
      @ qcheck [ vec_roundtrip_prop; vec_push_pop_prop; vec_sort_prop ] );
    ( "util:int_array",
      [ Alcotest.test_case "grow" `Quick test_int_array_grow ]
      @ qcheck [ int_array_blit_prop ] );
    ( "util:stats",
      [ Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentile unsorted" `Quick test_stats_percentile_unsorted;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "confidence" `Quick test_stats_confidence ]
      @ qcheck [ stats_percentile_monotone_prop; stats_geomean_le_mean_prop ] );
    ( "util:histogram",
      [ Alcotest.test_case "basic" `Quick test_histogram_basic;
        Alcotest.test_case "small exact" `Quick test_histogram_percentile_exact_small;
        Alcotest.test_case "precision" `Quick test_histogram_percentile_precision;
        Alcotest.test_case "clamp" `Quick test_histogram_clamps_below_one;
        Alcotest.test_case "max/mean" `Quick test_histogram_max_mean;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        Alcotest.test_case "clear" `Quick test_histogram_clear;
        Alcotest.test_case "curve" `Quick test_histogram_curve ]
      @ qcheck [ histogram_percentile_bounds_prop; histogram_monotone_prop ] );
    ( "util:bits",
      [ Alcotest.test_case "log2" `Quick test_bits_log2;
        Alcotest.test_case "clz63" `Quick test_bits_clz63;
        Alcotest.test_case "pow2" `Quick test_bits_pow2;
        Alcotest.test_case "round_up" `Quick test_bits_round_up ] );
    ( "util:chart",
      [ Alcotest.test_case "renders" `Quick test_chart_renders;
        Alcotest.test_case "log scale" `Quick test_chart_log_scale;
        Alcotest.test_case "errors" `Quick test_chart_errors;
        Alcotest.test_case "single point" `Quick test_chart_single_point ] );
    ( "util:table",
      [ Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "ragged" `Quick test_table_ragged ] ) ]
