(* The state word lives in an 8-byte buffer rather than a
   [mutable int64] field: storing into such a field boxes a fresh
   [int64] on every draw, while [Bytes.set_int64_ne] writes the raw
   word. With the [@inline] helpers below, every intermediate [int64]
   and [float] of a draw stays in registers (no flambda needed), and
   [next], [int] and [bool] are inlined into their callers in release
   builds, so a draw is no call at all. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy t = Bytes.copy t

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let[@inline] next t = Int64.to_int (next_int64 t) land max_int

let split t = of_state (next_int64 t)

(* Cold: the raise stays out of [int]'s inlined body. *)
let[@inline never] bad_bound () = invalid_arg "Prng.int: bound must be positive"

let[@inline] int t bound =
  if bound <= 0 then bad_bound ();
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62
     so modulo bias is negligible for simulation purposes. *)
  next t mod bound

let[@inline] float t bound = Float.of_int (next t) /. Float.of_int max_int *. bound

let[@inline] bool t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let[@inline] exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 1e-12 then 1e-12 else u in
  -.mean *. log u

let geometric_size t ~mean ~min ~max =
  if mean <= min then min
  else begin
    let span = Float.of_int (mean - min) in
    let v = min + int_of_float (exponential t ~mean:span) in
    if v < min then min else if v > max then max else v
  end

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))
