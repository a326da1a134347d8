type t = { mutable value : float }

(* The weight of an observation above the prediction; one below it
   weighs the complement. *)
let up_weight = 0.75

let create ~initial = { value = initial }

let observe t x =
  let w = if x > t.value then up_weight else 1.0 -. up_weight in
  t.value <- (w *. x) +. ((1.0 -. w) *. t.value)

let value t = t.value
