(* Order statistics over run samples and the base-vs-new verdict the
   ledger's --compare prints for each workload x metric. *)

(* [quantile xs p] (p in [0, 1]) interpolates linearly between the two
   closest ranks of the sorted samples (numpy's default, Python's
   statistics.quantiles(method="inclusive")). *)
let quantile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Verdict.quantile: no samples";
  Array.sort Float.compare a;
  let h = p *. Float.of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. Float.of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Interquartile range as a share of the median: the run-to-run spread a
   bound is judged against. *)
let spread xs =
  let m = median xs in
  if m = 0.0 then 0.0 else (quantile xs 0.75 -. quantile xs 0.25) /. Float.abs m

type t = Better | Within | Worse | Unresolved

let to_string = function
  | Better -> "better"
  | Within -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [judge ~lower_is_better ~bound base next]: [Worse] when the new median
   is worse than the base median by more than [bound] (a share of the
   base median); [Better] when it improves by more than the spread of
   either side; [Unresolved] when either side's spread exceeds the bound,
   unless every new sample beats every base sample. *)
let judge ~lower_is_better ~bound base next =
  let mb = median base and mn = median next in
  let worse_by = (if lower_is_better then mn -. mb else mb -. mn) /. Float.abs mb in
  let s = Float.max (spread base) (spread next) in
  let beats x y = if lower_is_better then x < y else x > y in
  if s > bound then
    if List.for_all (fun n -> List.for_all (fun b -> beats n b) base) next then
      Better
    else Unresolved
  else if worse_by > bound then Worse
  else if -.worse_by > s then Better
  else Within
