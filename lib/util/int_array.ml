let blit (src : int array) src_pos (dst : int array) dst_pos len =
  if len < 0
     || src_pos < 0
     || src_pos > Array.length src - len
     || dst_pos < 0
     || dst_pos > Array.length dst - len
  then invalid_arg "Int_array.blit";
  if src == dst && src_pos < dst_pos then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
    done

let grow a needed fill =
  let cap = ref (max 1 (Array.length a)) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let b = Array.make !cap fill in
  blit a 0 b 0 (Array.length a);
  b
