type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  let capacity = if capacity < 1 then 1 else capacity in
  { data = Array.make capacity 0; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let grow v needed = v.data <- Int_array.grow v.data needed 0

(* [len <= Array.length data] is the structural invariant, so indices
   that pass the explicit range checks can use unchecked array access —
   these sit on every collector work-packet inner loop. *)

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

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate";
  v.len <- n

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
let to_array v = Array.sub v.data 0 v.len

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

let swap_remove v i =
  check v i;
  let x = v.data.(i) in
  v.len <- v.len - 1;
  v.data.(i) <- v.data.(v.len);
  x

let sort cmp v =
  let arr = to_array v in
  Array.sort cmp arr;
  Int_array.blit arr 0 v.data 0 v.len
