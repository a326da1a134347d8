(* Buckets: for each power of two we keep [sub] linear sub-buckets, giving
   a relative error of 1/sub. 64 exponents x 64 sub-buckets = 4096 ints. *)

let sub_bits = 6
let sub = 1 lsl sub_bits

type t = { buckets : int array; mutable count : int; mutable total : int }

let create () = { buckets = Array.make (64 * sub) 0; count = 0; total = 0 }

let index_of v =
  let v = if v < 1 then 1 else v in
  let msb = 62 - Bits.clz63 v in
  if msb < sub_bits then v
  else begin
    let shift = msb - sub_bits in
    let mantissa = (v lsr shift) land (sub - 1) in
    ((msb - sub_bits + 1) * sub) + mantissa
  end

let value_of idx =
  if idx < sub then idx
  else begin
    let exp = (idx / sub) + sub_bits - 1 in
    let mantissa = idx land (sub - 1) in
    (1 lsl exp) lor (mantissa lsl (exp - sub_bits))
  end

let record t v =
  let idx = index_of v in
  t.buckets.(idx) <- t.buckets.(idx) + 1;
  t.count <- t.count + 1;
  t.total <- t.total + v

let count t = t.count
let total t = t.total

let percentile_opt t p =
  if t.count = 0 || p < 0.0 || p > 100.0 then None
  else begin
    let target =
      let f = p /. 100.0 *. Float.of_int t.count in
      let c = int_of_float (Float.ceil f) in
      if c < 1 then 1 else if c > t.count then t.count else c
    in
    let rec scan idx acc =
      let acc = acc + t.buckets.(idx) in
      if acc >= target then value_of idx else scan (idx + 1) acc
    in
    Some (scan 0 0)
  end

let mean_opt t =
  if t.count = 0 then None else Some (Float.of_int t.total /. Float.of_int t.count)

let equal a b =
  a.count = b.count && a.total = b.total && a.buckets = b.buckets

let merge ~into src =
  Array.iteri
    (fun i n -> if n > 0 then into.buckets.(i) <- into.buckets.(i) + n)
    src.buckets;
  into.count <- into.count + src.count;
  into.total <- into.total + src.total

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.total <- 0
