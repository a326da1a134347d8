(* Helpers shared by the test groups. *)

(* [contains s sub]: [sub] occurs somewhere in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
