type header = {
  version : int;
  workload : string;
  collector : string;
  seed : int;
  scale : float;
  heap_factor : float;
  heap_bytes : int;
  block_bytes : int;
  line_bytes : int;
  granule_bytes : int;
  rc_bits : int;
  los_threshold : int;
  free_buffer_entries : int;
}

type event =
  | Alloc of { id : int; size : int; nfields : int; large : bool }
  | Alloc_failed of { size : int; nfields : int }
  | Write of { src : int; field : int; value : int }
  | Read of { src : int; field : int }
  | Root of { slot : int; value : int }
  | Work of { ns : float }
  | Safepoint
  | Request_start of { gap : float }
  | Request_end
  | Measurement_start
  | Survived of { bytes : int }
  | Finish

(* The in-memory representation is a flat struct-of-arrays ring rather
   than an array of boxed [event]s: one dense tag byte per event plus
   parallel operand arrays, batch-decoded once at load. The replay inner
   loop dispatches on the tag byte and reads operands straight from the
   ring — no per-event pointer chase, no variant allocation. The boxed
   [event] variant survives only as a view ({!event}/{!events}) for the
   differ, [stat] and tests.

   Operand packing (unused slots stay 0 / 0.0):
     tag              op1    op2      op3                        fop
     alloc            id     size     nfields lsl 1 lor large    -
     alloc_failed     size   nfields  -                          -
     write            src    field    value                      -
     read             src    field    -                          -
     root             slot   value    -                          -
     work             -      -        -                          ns
     request_start    -      -        -                          gap
     survived         bytes  -        -                          -
     (safepoint, request_end, measurement_start, finish: no operands)

   [allocs] and [max_id] are the replayer's registry-presizing input,
   filled in while the ring is built so no replay lane rescans it. *)
type ring = {
  count : int;
  tags : Bytes.t;
  op1 : int array;
  op2 : int array;
  op3 : int array;
  fop : float array;
  allocs : int;
  max_id : int;
}

type t = { header : header; ring : ring }

let magic = "LXRTRACE"
let current_version = 1

(* Event tags. Tag 0 is the end-of-stream marker that introduces the
   trailer, so a zeroed file can never parse as an empty trace. *)
let tag_end = 0
let tag_alloc = 1
let tag_alloc_failed = 2
let tag_write = 3
let tag_read = 4
let tag_root = 5
let tag_work = 6
let tag_safepoint = 7
let tag_request_start = 8
let tag_request_end = 9
let tag_measurement_start = 10
let tag_survived = 11
let tag_finish = 12

(* The decoder below and [Replay]'s dispatch match on the tag literals
   so the compiler emits one jump table; pin the literals to the
   constants. *)
let () =
  assert (
    tag_alloc = 1
    && tag_alloc_failed = 2
    && tag_write = 3
    && tag_read = 4
    && tag_root = 5
    && tag_work = 6
    && tag_safepoint = 7
    && tag_request_start = 8
    && tag_request_end = 9
    && tag_measurement_start = 10
    && tag_survived = 11
    && tag_finish = 12)

let event_name = function
  | Alloc _ -> "alloc"
  | Alloc_failed _ -> "alloc-failed"
  | Write _ -> "write"
  | Read _ -> "read"
  | Root _ -> "root"
  | Work _ -> "work"
  | Safepoint -> "safepoint"
  | Request_start _ -> "request-start"
  | Request_end -> "request-end"
  | Measurement_start -> "measurement-start"
  | Survived _ -> "survived"
  | Finish -> "finish"

(* --- Ring view --------------------------------------------------------- *)

let num_events t = t.ring.count
let ring t = t.ring
let tag_at t i = Char.code (Bytes.unsafe_get t.ring.tags i)

let event t i =
  let g = t.ring in
  if i < 0 || i >= g.count then invalid_arg "Trace_format.event: index out of bounds";
  let tag = Char.code (Bytes.get g.tags i) in
  if tag = tag_alloc then
    Alloc
      { id = g.op1.(i);
        size = g.op2.(i);
        nfields = g.op3.(i) lsr 1;
        large = g.op3.(i) land 1 <> 0 }
  else if tag = tag_alloc_failed then
    Alloc_failed { size = g.op1.(i); nfields = g.op2.(i) }
  else if tag = tag_write then
    Write { src = g.op1.(i); field = g.op2.(i); value = g.op3.(i) }
  else if tag = tag_read then Read { src = g.op1.(i); field = g.op2.(i) }
  else if tag = tag_root then Root { slot = g.op1.(i); value = g.op2.(i) }
  else if tag = tag_work then Work { ns = g.fop.(i) }
  else if tag = tag_safepoint then Safepoint
  else if tag = tag_request_start then Request_start { gap = g.fop.(i) }
  else if tag = tag_request_end then Request_end
  else if tag = tag_measurement_start then Measurement_start
  else if tag = tag_survived then Survived { bytes = g.op1.(i) }
  else if tag = tag_finish then Finish
  else assert false (* decode validated every tag *)

let events t = Array.init t.ring.count (event t)

let ring_of_events evs =
  let count = Array.length evs in
  let tags = Bytes.make count '\000' in
  let op1 = Array.make count 0 in
  let op2 = Array.make count 0 in
  let op3 = Array.make count 0 in
  let fop = Array.make count 0.0 in
  let allocs = ref 0 and max_id = ref 0 in
  Array.iteri
    (fun i e ->
      let tag =
        match e with
        | Alloc { id; size; nfields; large } ->
          incr allocs;
          if id > !max_id then max_id := id;
          op1.(i) <- id;
          op2.(i) <- size;
          op3.(i) <- (nfields lsl 1) lor (if large then 1 else 0);
          tag_alloc
        | Alloc_failed { size; nfields } ->
          op1.(i) <- size;
          op2.(i) <- nfields;
          tag_alloc_failed
        | Write { src; field; value } ->
          op1.(i) <- src;
          op2.(i) <- field;
          op3.(i) <- value;
          tag_write
        | Read { src; field } ->
          op1.(i) <- src;
          op2.(i) <- field;
          tag_read
        | Root { slot; value } ->
          op1.(i) <- slot;
          op2.(i) <- value;
          tag_root
        | Work { ns } ->
          fop.(i) <- ns;
          tag_work
        | Safepoint -> tag_safepoint
        | Request_start { gap } ->
          fop.(i) <- gap;
          tag_request_start
        | Request_end -> tag_request_end
        | Measurement_start -> tag_measurement_start
        | Survived { bytes } ->
          op1.(i) <- bytes;
          tag_survived
        | Finish -> tag_finish
      in
      Bytes.set tags i (Char.chr tag))
    evs;
  { count; tags; op1; op2; op3; fop; allocs = !allocs; max_id = !max_id }

let of_events header evs = { header; ring = ring_of_events evs }
let alloc_stats t = (t.ring.allocs, t.ring.max_id)

(* --- Primitive encoders ------------------------------------------------ *)

(* Unsigned LEB128. Negative ints round-trip (as 10-byte encodings via
   the logical shift) but every field written here is non-negative. *)
let put_uv buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let put_fixed64 buf bits =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

let put_f64 buf f = put_fixed64 buf (Int64.bits_of_float f)

let put_string buf s =
  put_uv buf (String.length s);
  Buffer.add_string buf s

(* FNV-1a over a string region, 64-bit. The region is checked once, so
   the per-byte reads are unchecked. *)
let fnv1a s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Trace_format.fnv1a";
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

(* --- Decoder state ----------------------------------------------------- *)

exception Malformed of string

type reader = { s : string; mutable pos : int }

(* [n] comes from the file: a negative or huge length must be rejected
   here, and [r.pos + n] could overflow. *)
let need r n =
  if n < 0 || n > String.length r.s - r.pos then raise (Malformed "truncated trace")

let get_u8 r =
  need r 1;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_uv_checked r =
  let shift = ref 0 and acc = ref 0 and continue = ref true in
  while !continue do
    let b = get_u8 r in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
    else if !shift > 70 then raise (Malformed "varint too long")
  done;
  !acc

(* One-byte varints (every tag and most operands) return after one
   bounds test; multi-byte and truncated ones take the checked loop,
   which owns the error outcomes. *)
let[@inline] get_uv r =
  let pos = r.pos in
  if pos < String.length r.s then begin
    let b = Char.code (String.unsafe_get r.s pos) in
    if b < 0x80 then begin
      r.pos <- pos + 1;
      b
    end
    else get_uv_checked r
  end
  else get_uv_checked r

(* Inlined, so a decoded double goes straight into the ring's float
   array without boxing. *)
let[@inline] get_fixed64 r =
  need r 8;
  let bits = String.get_int64_le r.s r.pos in
  r.pos <- r.pos + 8;
  bits

let[@inline] get_f64 r = Int64.float_of_bits (get_fixed64 r)

let get_string r =
  let len = get_uv r in
  need r len;
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

(* --- Header ------------------------------------------------------------ *)

let make_header ~workload ~collector ~seed ~scale ~heap_factor
    ~(cfg : Repro_heap.Heap_config.t) =
  { version = current_version;
    workload;
    collector;
    seed;
    scale;
    heap_factor;
    heap_bytes = cfg.heap_bytes;
    block_bytes = cfg.block_bytes;
    line_bytes = cfg.line_bytes;
    granule_bytes = cfg.granule_bytes;
    rc_bits = cfg.rc_bits;
    los_threshold = cfg.los_threshold;
    free_buffer_entries = cfg.free_buffer_entries }

let heap_config h =
  Repro_heap.Heap_config.make ~block_bytes:h.block_bytes ~line_bytes:h.line_bytes
    ~granule_bytes:h.granule_bytes ~rc_bits:h.rc_bits
    ~los_threshold:h.los_threshold ~free_buffer_entries:h.free_buffer_entries
    ~heap_bytes:h.heap_bytes ()

let encode_header buf h =
  put_uv buf h.version;
  put_string buf h.workload;
  put_string buf h.collector;
  put_uv buf h.seed;
  put_f64 buf h.scale;
  put_f64 buf h.heap_factor;
  put_uv buf h.heap_bytes;
  put_uv buf h.block_bytes;
  put_uv buf h.line_bytes;
  put_uv buf h.granule_bytes;
  put_uv buf h.rc_bits;
  put_uv buf h.los_threshold;
  put_uv buf h.free_buffer_entries

let decode_header r =
  let version = get_uv r in
  if version <> current_version then
    raise
      (Malformed
         (Printf.sprintf "unsupported trace version %d (reader supports %d)"
            version current_version));
  let workload = get_string r in
  let collector = get_string r in
  let seed = get_uv r in
  let scale = get_f64 r in
  let heap_factor = get_f64 r in
  let heap_bytes = get_uv r in
  let block_bytes = get_uv r in
  let line_bytes = get_uv r in
  let granule_bytes = get_uv r in
  let rc_bits = get_uv r in
  let los_threshold = get_uv r in
  let free_buffer_entries = get_uv r in
  { version; workload; collector; seed; scale; heap_factor; heap_bytes;
    block_bytes; line_bytes; granule_bytes; rc_bits; los_threshold;
    free_buffer_entries }

(* --- Events ------------------------------------------------------------ *)

let encode_event buf = function
  | Alloc { id; size; nfields; large } ->
    put_uv buf tag_alloc;
    put_uv buf id;
    put_uv buf size;
    put_uv buf nfields;
    Buffer.add_char buf (if large then '\001' else '\000')
  | Alloc_failed { size; nfields } ->
    put_uv buf tag_alloc_failed;
    put_uv buf size;
    put_uv buf nfields
  | Write { src; field; value } ->
    put_uv buf tag_write;
    put_uv buf src;
    put_uv buf field;
    put_uv buf value
  | Read { src; field } ->
    put_uv buf tag_read;
    put_uv buf src;
    put_uv buf field
  | Root { slot; value } ->
    put_uv buf tag_root;
    put_uv buf slot;
    put_uv buf value
  | Work { ns } ->
    put_uv buf tag_work;
    put_f64 buf ns
  | Safepoint -> put_uv buf tag_safepoint
  | Request_start { gap } ->
    put_uv buf tag_request_start;
    put_f64 buf gap
  | Request_end -> put_uv buf tag_request_end
  | Measurement_start -> put_uv buf tag_measurement_start
  | Survived { bytes } ->
    put_uv buf tag_survived;
    put_uv buf bytes
  | Finish -> put_uv buf tag_finish

(* --- Whole-trace assembly --------------------------------------------- *)

let assemble ~header_buf ~events_buf ~count =
  let buf = Buffer.create (Buffer.length events_buf + 64) in
  Buffer.add_string buf magic;
  Buffer.add_buffer buf header_buf;
  Buffer.add_buffer buf events_buf;
  put_uv buf tag_end;
  put_uv buf count;
  (* Checksum covers everything written so far (magic included). *)
  let body = Buffer.contents buf in
  let h = fnv1a body ~pos:0 ~len:(String.length body) in
  put_fixed64 buf h;
  Buffer.contents buf

let to_string t =
  let header_buf = Buffer.create 64 in
  encode_header header_buf t.header;
  let events_buf = Buffer.create 4096 in
  for i = 0 to t.ring.count - 1 do
    encode_event events_buf (event t i)
  done;
  assemble ~header_buf ~events_buf ~count:t.ring.count

(* The event count the trailer declares, read backward from the end: the
   file ends [tag_end; count varint; 8 checksum bytes], the varint's last
   byte is below 0x80 and its earlier bytes are 0x80 or above. [events]
   is where the event stream starts. The result is clamped to the
   stream's length in bytes (from [events] up to [tag_end]), since every
   event takes at least one, and is only a capacity hint: 0 when the
   bytes do not have the trailer's shape. *)
let trailer_count s ~events =
  let last = String.length s - 9 in
  if last <= events || Char.code s.[last] >= 0x80 then 0
  else begin
    let first = ref last in
    while !first > events && last - !first < 9 && Char.code s.[!first - 1] >= 0x80 do
      decr first
    done;
    if !first <= events || Char.code s.[!first - 1] <> tag_end then 0
    else
      (* At most ten bytes ending below 0x80: [get_uv] cannot fail. *)
      let body = !first - 1 - events in
      max 0 (min (get_uv { s; pos = !first }) body)
  end

let of_string s =
  try
    if String.length s < String.length magic + 9 then
      raise (Malformed "too short to be a trace");
    if String.sub s 0 (String.length magic) <> magic then
      raise (Malformed "bad magic (not an lxr_trace file)");
    let r = { s; pos = String.length magic } in
    let header = decode_header r in
    (* One pass straight into the ring's flat arrays, allocated once at
       the trailer's count, so a valid trace copies nothing. Only a
       malformed trailer makes the count wrong: then [grow] doubles the
       arrays and the end trims them, and the forward parse still
       decides the result. *)
    let cap = ref (trailer_count s ~events:r.pos) in
    let tags = ref (Bytes.make !cap '\000') in
    let op1 = ref (Array.make !cap 0) in
    let op2 = ref (Array.make !cap 0) in
    let op3 = ref (Array.make !cap 0) in
    let fop = ref (Array.make !cap 0.0) in
    let grow () =
      let c = max 16 (!cap * 2) in
      let nt = Bytes.make c '\000' in
      Bytes.blit !tags 0 nt 0 !cap;
      tags := nt;
      let gi a =
        let na = Array.make c 0 in
        Array.blit !a 0 na 0 !cap;
        a := na
      in
      gi op1;
      gi op2;
      gi op3;
      let nf = Array.make c 0.0 in
      Array.blit !fop 0 nf 0 !cap;
      fop := nf;
      cap := c
    in
    let n = ref 0 and allocs = ref 0 and max_id = ref 0 in
    let continue = ref true in
    while !continue do
      let tag = get_uv r in
      if tag = tag_end then continue := false
      else begin
        if !n >= !cap then grow ();
        let i = !n in
        (match tag with
        | 1 (* alloc *) ->
          let id = get_uv r in
          let size = get_uv r in
          let nfields = get_uv r in
          let large = get_u8 r <> 0 in
          !op1.(i) <- id;
          !op2.(i) <- size;
          !op3.(i) <- (nfields lsl 1) lor (if large then 1 else 0);
          incr allocs;
          if id > !max_id then max_id := id
        | 2 (* alloc_failed *) ->
          let size = get_uv r in
          let nfields = get_uv r in
          !op1.(i) <- size;
          !op2.(i) <- nfields
        | 3 (* write *) ->
          let src = get_uv r in
          let field = get_uv r in
          let value = get_uv r in
          !op1.(i) <- src;
          !op2.(i) <- field;
          !op3.(i) <- value
        | 4 (* read *) | 5 (* root *) ->
          let a = get_uv r in
          let b = get_uv r in
          !op1.(i) <- a;
          !op2.(i) <- b
        | 6 (* work *) | 8 (* request_start *) -> !fop.(i) <- get_f64 r
        | 11 (* survived *) -> !op1.(i) <- get_uv r
        | 7 | 9 | 10 | 12 (* no operands *) -> ()
        | _ -> raise (Malformed (Printf.sprintf "unknown event tag %d" tag)));
        Bytes.set !tags i (Char.unsafe_chr tag);
        incr n
      end
    done;
    let declared = get_uv r in
    if declared <> !n then
      raise
        (Malformed
           (Printf.sprintf "event count mismatch: trailer says %d, stream has %d"
              declared !n));
    let body_len = r.pos in
    let declared_sum = get_fixed64 r in
    let actual_sum = fnv1a s ~pos:0 ~len:body_len in
    if declared_sum <> actual_sum then raise (Malformed "checksum mismatch");
    if r.pos <> String.length s then raise (Malformed "trailing garbage");
    (* Geometry last, so a damaged file still reports the damage. *)
    (match heap_config header with
    | (_ : Repro_heap.Heap_config.t) -> ()
    | exception Invalid_argument msg -> raise (Malformed msg));
    let count = !n in
    let trim a = if Array.length a = count then a else Array.sub a 0 count in
    let ring =
      { count;
        tags = (if Bytes.length !tags = count then !tags else Bytes.sub !tags 0 count);
        op1 = trim !op1;
        op2 = trim !op2;
        op3 = trim !op3;
        fop =
          (if Array.length !fop = count then !fop else Array.sub !fop 0 count);
        allocs = !allocs;
        max_id = !max_id }
    in
    Ok { header; ring }
  with Malformed msg -> Error msg

let write_string_to_file data path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error "unreadable trace file"
