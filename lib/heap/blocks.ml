type state = Free | Recyclable | Owned | In_use | Los_backing

type t = {
  states : state array;
  counts : int array;  (* blocks per state, indexed by [slot]; kept by [set_state] *)
  young_flags : Bytes.t;
  target_flags : Bytes.t;
  resident_lists : Repro_util.Vec.t array;
}

let slot = function
  | Free -> 0
  | Recyclable -> 1
  | Owned -> 2
  | In_use -> 3
  | Los_backing -> 4

let create cfg =
  let n = Heap_config.blocks cfg in
  let counts = Array.make 5 0 in
  counts.(slot Free) <- n;
  { states = Array.make n Free;
    counts;
    young_flags = Bytes.make n '\000';
    target_flags = Bytes.make n '\000';
    resident_lists = Array.init n (fun _ -> Repro_util.Vec.create ~capacity:8 ()) }

let state t b = t.states.(b)

(* The only writer of [states], so [counts] stays exact. The counters
   are plain ints: every caller runs on the heap's owning domain (see
   blocks.mli). *)
let set_state t b st =
  let old = t.states.(b) in
  t.states.(b) <- st;
  t.counts.(slot old) <- t.counts.(slot old) - 1;
  t.counts.(slot st) <- t.counts.(slot st) + 1

let young t b = Bytes.get t.young_flags b <> '\000'
let set_young t b v = Bytes.set t.young_flags b (if v then '\001' else '\000')
let clear_young t = Bytes.fill t.young_flags 0 (Bytes.length t.young_flags) '\000'
let target t b = Bytes.get t.target_flags b <> '\000'
let set_target t b v = Bytes.set t.target_flags b (if v then '\001' else '\000')
let residents t b = t.resident_lists.(b)
let add_resident t b id = Repro_util.Vec.push t.resident_lists.(b) id

(* In-place stable filter: no per-sweep list allocation, and residents
   keep their insertion order (the pre-PR 5 version reversed the order
   on every compact, which was an accident of its list accumulator). *)
let compact t b ~live = Repro_util.Vec.retain live t.resident_lists.(b)

let iter_state t st f =
  Array.iteri (fun b s -> if s = st then f b) t.states

let count_state t st = t.counts.(slot st)

let total t = Array.length t.states
