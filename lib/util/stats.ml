let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty"
  | xs ->
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
          acc +. log x)
        0.0 xs
    in
    exp (sum_logs /. Float.of_int (List.length xs))

let stddev xs =
  let n = List.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. Float.of_int (n - 1))
  end

let percentile_sorted arr p =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: out of range";
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. Float.of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then arr.(lo)
    else begin
      let frac = rank -. Float.of_int lo in
      arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
    end
  end

let percentile xs p =
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  percentile_sorted arr p

let confidence95 xs =
  let n = List.length xs in
  if n < 2 then 0.0 else 1.96 *. stddev xs /. sqrt (Float.of_int n)

let confidence95_fraction xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else confidence95 xs /. m
