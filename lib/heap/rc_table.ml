(* Counts are packed [8 / rc_bits] per byte in a [Bytes.t].

   Alongside the packed counters the table maintains two derived
   occupancy arrays, updated incrementally by the two writers ([set],
   and [clear_range], which inlines [set]'s zeroing): live (non-zero)
   granules per line, and free lines per block.
   They turn the sweep's hot classification queries — [line_is_free],
   [block_is_free], [free_lines_in_block], [live_granules_in_block] —
   from per-granule scans into O(1) reads, which is where most of the
   young-sweep and allocator hole-search time went before PR 5. *)

type t = {
  data : Bytes.t;
  per_byte : int;
  mask : int;
  granule_shift : int;  (* addr -> granule index *)
  pb_shift : int;  (* granule -> byte index *)
  rcb_shift : int;  (* slot-in-byte -> bit shift *)
  line_shift : int;  (* addr -> global line index *)
  block_shift : int;  (* addr -> block index *)
  line_live : int array;  (* non-zero granule entries per global line *)
  block_free : int array;  (* all-zero lines per block *)
  block_live : int array;  (* non-zero granule entries per block *)
  lines_per_block : int;
}

let create (cfg : Heap_config.t) =
  let granules = Heap_config.total_granules cfg in
  let per_byte = 8 / cfg.rc_bits in
  let lpb = Heap_config.lines_per_block cfg in
  { data = Bytes.make ((granules + per_byte - 1) / per_byte) '\000';
    per_byte;
    mask = (1 lsl cfg.rc_bits) - 1;
    granule_shift = Repro_util.Bits.log2 cfg.granule_bytes;
    pb_shift = Repro_util.Bits.log2 per_byte;
    rcb_shift = Repro_util.Bits.log2 cfg.rc_bits;
    line_shift = Repro_util.Bits.log2 cfg.line_bytes;
    block_shift = Repro_util.Bits.log2 cfg.block_bytes;
    line_live = Array.make (Heap_config.total_lines cfg) 0;
    block_free = Array.make (Heap_config.blocks cfg) lpb;
    block_live = Array.make (Heap_config.blocks cfg) 0;
    lines_per_block = lpb }

let get t (_ : Heap_config.t) addr =
  let g = addr lsr t.granule_shift in
  let shift = (g land (t.per_byte - 1)) lsl t.rcb_shift in
  (Char.code (Bytes.unsafe_get t.data (g lsr t.pb_shift)) lsr shift) land t.mask

let set t (_ : Heap_config.t) addr v =
  let v = if v < 0 then 0 else if v > t.mask then t.mask else v in
  let g = addr lsr t.granule_shift in
  let byte = g lsr t.pb_shift in
  let shift = (g land (t.per_byte - 1)) lsl t.rcb_shift in
  let old = Char.code (Bytes.unsafe_get t.data byte) in
  let prev = (old lsr shift) land t.mask in
  if prev <> v then begin
    let cleared = old land lnot (t.mask lsl shift) in
    Bytes.unsafe_set t.data byte (Char.unsafe_chr (cleared lor (v lsl shift)));
    let line = addr lsr t.line_shift in
    let block = addr lsr t.block_shift in
    if prev = 0 then begin
      (* zero -> non-zero: the line may stop being free. *)
      let ll = Array.unsafe_get t.line_live line in
      if ll = 0 then
        Array.unsafe_set t.block_free block (Array.unsafe_get t.block_free block - 1);
      Array.unsafe_set t.line_live line (ll + 1);
      Array.unsafe_set t.block_live block (Array.unsafe_get t.block_live block + 1)
    end
    else if v = 0 then begin
      let ll = Array.unsafe_get t.line_live line - 1 in
      Array.unsafe_set t.line_live line ll;
      if ll = 0 then
        Array.unsafe_set t.block_free block (Array.unsafe_get t.block_free block + 1);
      Array.unsafe_set t.block_live block (Array.unsafe_get t.block_live block - 1)
    end
  end

let stuck = -1
let underflow = -2

let inc t cfg addr =
  let c = get t cfg addr in
  if c >= t.mask then stuck
  else begin
    let c' = c + 1 in
    set t cfg addr c';
    if c' = t.mask then stuck else c'
  end

let dec t cfg addr =
  let c = get t cfg addr in
  if c = t.mask then stuck
  else if c = 0 then underflow
  else begin
    set t cfg addr (c - 1);
    c - 1
  end

(* [set _ 0] on every covered granule, in one pass: a non-zero entry is
   zeroed in place and takes [set]'s non-zero -> zero bookkeeping; a zero
   entry is left alone, as [set] would leave it. *)
let clear_range t (_ : Heap_config.t) ~addr ~size =
  for g = addr lsr t.granule_shift to (addr + size - 1) lsr t.granule_shift do
    let byte = g lsr t.pb_shift in
    let shift = (g land (t.per_byte - 1)) lsl t.rcb_shift in
    let old = Char.code (Bytes.unsafe_get t.data byte) in
    if (old lsr shift) land t.mask <> 0 then begin
      Bytes.unsafe_set t.data byte (Char.unsafe_chr (old land lnot (t.mask lsl shift)));
      let a = g lsl t.granule_shift in
      let line = a lsr t.line_shift and block = a lsr t.block_shift in
      let ll = Array.unsafe_get t.line_live line - 1 in
      Array.unsafe_set t.line_live line ll;
      if ll = 0 then
        Array.unsafe_set t.block_free block (Array.unsafe_get t.block_free block + 1);
      Array.unsafe_set t.block_live block (Array.unsafe_get t.block_live block - 1)
    end
  done

let mark_straddle t cfg ~addr ~size =
  let first_line, last_line = Addr.lines_covered cfg ~addr ~size in
  (* Trailing lines except the last: the conservative treatment of
     straddling objects already accounts for the final line (§3.1). *)
  for l = first_line + 1 to last_line - 1 do
    set t cfg (Addr.line_start cfg l) t.mask
  done

let line_is_free t (_ : Heap_config.t) gline = Array.unsafe_get t.line_live gline = 0
let block_is_free t (_ : Heap_config.t) b = Array.unsafe_get t.block_free b = t.lines_per_block
let free_lines_in_block t (_ : Heap_config.t) b = Array.unsafe_get t.block_free b
let live_granules_in_block t (_ : Heap_config.t) b = Array.unsafe_get t.block_live b

let iter_nonzero t cfg f =
  let granules = Heap_config.total_granules cfg in
  let nbytes = Bytes.length t.data in
  (* Word-wide skip: read 8 metadata bytes at a time and fall into the
     per-byte loop only for words that hold at least one non-zero
     entry. A mostly-empty table scans in O(heap / 512). *)
  let words = nbytes / 8 in
  let visit_byte byte =
    let v = Char.code (Bytes.unsafe_get t.data byte) in
    if v <> 0 then
      for slot = 0 to t.per_byte - 1 do
        let count = (v lsr (slot lsl t.rcb_shift)) land t.mask in
        let granule = (byte lsl t.pb_shift) + slot in
        if count <> 0 && granule < granules then f ~granule ~count
      done
  in
  for w = 0 to words - 1 do
    if Bytes.get_int64_le t.data (w * 8) <> 0L then
      for byte = w * 8 to (w * 8) + 7 do
        visit_byte byte
      done
  done;
  for byte = words * 8 to nbytes - 1 do
    visit_byte byte
  done
