let log2 v =
  if v < 1 then invalid_arg "Bits.log2";
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let clz63 v =
  if v < 1 then invalid_arg "Bits.clz63";
  62 - log2 v

let is_power_of_two v = v >= 1 && v land (v - 1) = 0

let round_up v align =
  if not (is_power_of_two align) then invalid_arg "Bits.round_up: align";
  (v + align - 1) land lnot (align - 1)
