type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  let capacity = if capacity < 1 then 1 else capacity in
  { data = Array.make capacity 0; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let grow v needed = v.data <- Int_array.grow v.data needed 0

(* [len <= Array.length data] is the structural invariant, so indices
   that pass the explicit range checks can use unchecked array access —
   these sit on every collector kernel's inner loop. *)

let push v x =
  if v.len = Array.length v.data then grow v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let check v i = if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let clear v = v.len <- 0

let retain p v =
  let w = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!w) <- x;
      incr w
    end
  done;
  v.len <- !w

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list xs =
  let v = create ~capacity:(List.length xs + 1) () in
  List.iter (push v) xs;
  v

let append dst src =
  let n = src.len in
  if n > 0 then begin
    if dst.len + n > Array.length dst.data then grow dst (dst.len + n);
    Int_array.blit src.data 0 dst.data dst.len n;
    dst.len <- dst.len + n
  end

(* Move [a.(i)] down the max-heap on [a.(0 .. n - 1)]. *)
let rec sift_down cmp a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && cmp a.(l) a.(l + 1) < 0 then l + 1 else l in
    if cmp a.(i) a.(c) < 0 then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down cmp a c n
    end
  end

(* Heap sort on the live prefix of [data]: O(n log n) on any input and
   no scratch array. *)
let sort cmp v =
  let a = v.data and n = v.len in
  for i = (n / 2) - 1 downto 0 do
    sift_down cmp a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down cmp a 0 last
  done
