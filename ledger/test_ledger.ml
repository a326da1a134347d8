(* Unit checks of the ledger's order statistics, compare verdicts and JSON
   reader. *)

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  assert (close (Verdict.quantile xs 0.0) 1.0);
  assert (close (Verdict.quantile xs 1.0) 4.0);
  assert (close (Verdict.median xs) 2.5);
  assert (close (Verdict.quantile xs 0.9) 3.7);
  assert (close (Verdict.quantile [ 7.0 ] 0.9) 7.0);
  assert (close (Verdict.spread [ 10.0; 10.0; 10.0 ]) 0.0);
  (* quartiles 1.75 and 3.25 around a median of 2.5 *)
  assert (close (Verdict.spread xs) 0.6);
  let base = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  let judge lower next = Verdict.judge ~lower_is_better:lower ~bound:0.05 base next in
  assert (judge true [ 100.0; 100.5; 99.5; 101.0; 99.0 ] = Verdict.Within);
  assert (judge true [ 110.0; 111.0; 109.0; 110.5; 109.5 ] = Verdict.Worse);
  assert (judge false [ 110.0; 111.0; 109.0; 110.5; 109.5 ] = Verdict.Better);
  assert (judge true [ 90.0; 91.0; 89.0; 90.5; 89.5 ] = Verdict.Better);
  (* a new side whose spread exceeds the bound is unresolved unless every
     new sample beats every base sample *)
  assert (judge true [ 60.0; 140.0; 100.0; 80.0; 120.0 ] = Verdict.Unresolved);
  assert (judge true [ 10.0; 90.0; 50.0; 30.0; 70.0 ] = Verdict.Better);
  let j =
    Json.parse
      {|{"a": [1, 2.5e1, -3], "b": {"c": "x\"y\u0041"}, "d": true, "e": null}|}
  in
  assert (List.map Json.to_num (Json.to_list (Json.member "a" j)) = [ 1.0; 25.0; -3.0 ]);
  assert (Json.(to_str (member "c" (member "b" j))) = "x\"yA");
  assert (Json.(to_bool (member "d" j)));
  assert (Json.keys j = [ "a"; "b"; "d"; "e" ]);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | _ -> assert false
      | exception Json.Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"open" ]
