type receipt = {
  mutable fast_allocs : int;
  mutable slow_allocs : int;
  mutable blocks_acquired : int;
  mutable bytes_zeroed : int;
  mutable lines_scanned : int;
}

type t = {
  cfg : Heap_config.t;
  rc : Rc_table.t;
  blocks : Blocks.t;
  free : Free_lists.t;
  reuse : Reuse_table.t;
  mutable block : int;  (* current block index, -1 if none *)
  mutable cursor : int;
  mutable limit : int;
  mutable ovf_block : int;
  mutable ovf_cursor : int;
  mutable ovf_limit : int;
  r : receipt;
}

let create cfg ~rc ~blocks ~free ~reuse =
  { cfg; rc; blocks; free; reuse;
    block = -1; cursor = 0; limit = 0;
    ovf_block = -1; ovf_cursor = 0; ovf_limit = 0;
    r = { fast_allocs = 0; slow_allocs = 0; blocks_acquired = 0;
          bytes_zeroed = 0; lines_scanned = 0 } }

let receipt t = t.r

let reset_receipt t =
  t.r.fast_allocs <- 0;
  t.r.slow_allocs <- 0;
  t.r.blocks_acquired <- 0;
  t.r.bytes_zeroed <- 0;
  t.r.lines_scanned <- 0

(* A line is allocatable when it is free and is not the first free line
   after a used line (straddling conservatism), except at block start. *)
let line_allocatable t ~block_first_line l =
  Rc_table.line_is_free t.rc t.cfg l
  && (l = block_first_line || Rc_table.line_is_free t.rc t.cfg (l - 1))

(* Find the next hole (maximal allocatable line run) in block [b] starting
   at or after global line [from_line]. *)
let next_hole t b ~from_line =
  let first = Addr.block_start t.cfg b / t.cfg.line_bytes in
  let last = first + Heap_config.lines_per_block t.cfg - 1 in
  let from_line = if from_line < first then first else from_line in
  let rec find l =
    if l > last then None
    else begin
      t.r.lines_scanned <- t.r.lines_scanned + 1;
      if line_allocatable t ~block_first_line:first l then begin
        let rec extend e =
          if e + 1 > last || not (Rc_table.line_is_free t.rc t.cfg (e + 1)) then e
          else extend (e + 1)
        in
        Some (l, extend l)
      end
      else find (l + 1)
    end
  in
  find from_line

let claim_hole t (lo, hi) =
  let start = Addr.line_start t.cfg lo in
  let stop = Addr.line_start t.cfg hi + t.cfg.line_bytes in
  t.r.bytes_zeroed <- t.r.bytes_zeroed + (stop - start);
  Reuse_table.bump_range t.reuse ~first:lo ~last:hi;
  (start, stop)

let retire_current t =
  if t.block >= 0 then begin
    Blocks.set_state t.blocks t.block Blocks.In_use;
    t.block <- -1;
    t.cursor <- 0;
    t.limit <- 0
  end

let retire_overflow t =
  if t.ovf_block >= 0 then begin
    Blocks.set_state t.blocks t.ovf_block Blocks.In_use;
    t.ovf_block <- -1;
    t.ovf_cursor <- 0;
    t.ovf_limit <- 0
  end

let retire_all t =
  retire_current t;
  retire_overflow t

(* List entries can be stale (a block may be re-listed after lazy sweeps,
   repurposed as LOS backing, or selected as an evacuation target), so
   every acquisition validates the block's current state and skips
   entries that no longer qualify. *)
let acquire_free_block t =
  let rec try_next () =
    match Free_lists.acquire_free t.free with
    | None -> None
    | Some b when Blocks.state t.blocks b <> Blocks.Free -> try_next ()
    | Some b ->
      t.r.blocks_acquired <- t.r.blocks_acquired + 1;
      Blocks.set_state t.blocks b Blocks.Owned;
      Blocks.set_young t.blocks b true;
      let lo = Addr.block_start t.cfg b / t.cfg.line_bytes in
      let hi = lo + Heap_config.lines_per_block t.cfg - 1 in
      let start, stop = claim_hole t (lo, hi) in
      Some (b, start, stop)
  in
  try_next ()

let acquire_recyclable_block t =
  let rec try_next () =
    match Free_lists.acquire_recyclable t.free with
    | None -> None
    | Some b when Blocks.state t.blocks b <> Blocks.Recyclable || Blocks.target t.blocks b ->
      try_next ()
    | Some b ->
      t.r.blocks_acquired <- t.r.blocks_acquired + 1;
      (match next_hole t b ~from_line:0 with
      | Some hole ->
        Blocks.set_state t.blocks b Blocks.Owned;
        Blocks.set_young t.blocks b false;
        let start, stop = claim_hole t hole in
        Some (b, start, stop)
      | None ->
        (* The block filled up since it was listed; retire and retry. *)
        Blocks.set_state t.blocks b Blocks.In_use;
        try_next ())
  in
  try_next ()

let install_current t (b, start, stop) =
  t.block <- b;
  t.cursor <- start;
  t.limit <- stop

let advance_to_next_hole t =
  if t.block < 0 then false
  else begin
    let from_line = Addr.line_of t.cfg (t.limit - 1) + 1 in
    match next_hole t t.block ~from_line with
    | Some hole ->
      let start, stop = claim_hole t hole in
      t.cursor <- start;
      t.limit <- stop;
      true
    | None ->
      retire_current t;
      false
  end

(* The address-returning paths use [-1] as the "no memory" sentinel so
   the per-allocation fast path never boxes a [Some addr]; [alloc] wraps
   the result for option-typed callers. *)
let overflow_alloc t ~size =
  if t.ovf_cursor + size <= t.ovf_limit then begin
    let addr = t.ovf_cursor in
    t.ovf_cursor <- addr + size;
    addr
  end
  else begin
    retire_overflow t;
    match acquire_free_block t with
    | None -> -1
    | Some (b, start, stop) ->
      t.ovf_block <- b;
      t.ovf_cursor <- start + size;
      t.ovf_limit <- stop;
      start
  end

let rec alloc_slow t ~size =
  t.r.slow_allocs <- t.r.slow_allocs + 1;
  (* Dynamic overflow: the current hole has room left but this object is
     bigger than a line — don't waste the lines, divert to overflow. When
     no completely free block is available for overflow, fall back to the
     regular hole search: a multi-line hole can still hold the object. *)
  let ovf =
    if size > t.cfg.line_bytes && t.limit > t.cursor then overflow_alloc t ~size
    else -1
  in
  if ovf >= 0 then ovf
  else if advance_to_next_hole t then alloc_addr t ~size
  else begin
    match acquire_recyclable_block t with
    | Some placement ->
      install_current t placement;
      alloc_addr t ~size
    | None ->
      (match acquire_free_block t with
      | Some placement ->
        install_current t placement;
        alloc_addr t ~size
      | None -> -1)
  end

and alloc_addr t ~size =
  if size <= 0 || size > t.cfg.los_threshold then
    invalid_arg
      (Printf.sprintf
         "Bump_allocator.alloc_addr: size %d outside (0, %d] — large objects \
          must go through Heap.alloc_fast's LOS path"
         size t.cfg.los_threshold);
  if not (Addr.is_granule_aligned t.cfg size) then
    invalid_arg
      (Printf.sprintf
         "Bump_allocator.alloc_addr: size %d is not a multiple of the %d-byte \
          granule (caller must align with Heap.align_size)"
         size t.cfg.granule_bytes);
  if t.cursor + size <= t.limit then begin
    let addr = t.cursor in
    t.cursor <- addr + size;
    t.r.fast_allocs <- t.r.fast_allocs + 1;
    addr
  end
  else alloc_slow t ~size
