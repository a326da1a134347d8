open Repro_util

let null = 0

(* Each object's metadata lives in its canonical handle record: address,
   birth epoch, field extent and logged word. The record is the one
   allocation [register] makes. The store's three tables are paged:
   slot -> handle, id -> slot and the field pool are each a small page
   table over fixed [page_words]-word pages. Growth appends one page
   (doubling only the table of page pointers) and never copies a page,
   so a table's entries stay where they were written.

   - Object fields are an extent of one field page, never straddling
     two. The handle holds that page itself, so a field read is one
     load of the page and one of the word. An extent longer than a page
     gets a page of its own.
   - The coalescing barrier's logged bits are a single inline word in
     the handle when the object has <= 63 fields (the overwhelmingly
     common case). A wider object's bitmap follows its fields in its
     own extent.

   Freed extents of each length form an intrusive LIFO list: the head
   address sits in an [int array] indexed by length and each free
   extent's first word links to the next, so neither registration nor
   freeing allocates beyond the handle. When the bump page cannot hold
   the next extent, its unusable tail goes on the free list of the
   tail's length. A reused extent is refilled whole, link word
   included.

   External ids stay monotonic allocation-sequence numbers (so recorded
   traces replay with identical ids); *slots* are recycled through a
   free-slot stack. Freeing sets the handle's own [addr] to -1, and an
   id resolves only while its slot still holds its handle, so a stale
   handle reads as freed forever and can only see or change its own
   dead record, even after its slot has been reused. *)

let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

type field_page = int array

type t = {
  id : int;
  size : int;
  slot : int;
  fpage : field_page;  (* the pool page holding the field extent *)
  mutable addr : int;  (* -1 once freed *)
  mutable birth : int;
  nfields : int;
  foff : int;  (* extent address: pool page number * page_words + offset *)
  mutable logged : int;  (* inline logged word; unused above 63 fields *)
}

(* The "no object" handle: id 0 (= null, never assigned to a real
   object) and address -1, so it reads as freed forever. Nothing can
   change it (every setter is a no-op on a freed handle), so one serves
   every store, filling unused handle-page entries without boxing an
   option. Each handle page is made over it: [Array.make] of more than
   256 elements over a young value forces a minor collection, and
   [vacant] is old after the process's first one. *)
let vacant =
  { id = null;
    size = 0;
    slot = 0;
    fpage = [||];
    addr = -1;
    birth = 0;
    nfields = 0;
    foff = 0;
    logged = 0 }

type store = {
  mutable handles : t array array;
      (* slot pages: the live handle, or [vacant]; read below [slots] *)
  mutable slots : int;  (* high-water slot count *)
  free_slots : Vec.t;
  (* id pages: the slot each id was registered into; every id below
     [next_id] has its entry *)
  mutable id_to_slot : int array array;
  mutable next_id : int;
  (* field pool: bump allocation in page [pool_cur] from offset
     [pool_used]; free extents listed by length *)
  mutable pool : int array array;
  mutable pool_pages : int;
  mutable pool_cur : int;
  mutable pool_used : int;
  mutable pool_free : int array;  (* index = extent length *)
  mutable bytes : int;
  mutable count : int;
}

let inline_logged_max = 63

(* Store invariant: a live object's [nfields] fields sit in [fpage]
   from offset [foff land page_mask] (pages never shrink or move), so
   the accessors below read them unchecked once [is_freed] has resolved
   liveness. The
   explicit [check_field] bound on the caller-supplied index is the one
   check that must stay.

   The per-event accessors ([is_freed], [check_field], [field],
   [set_field], [Registry.find_live]) are [@inline], so release builds
   compile a field read or an id lookup into the caller; each raise sits
   in a cold [@inline never] helper to keep those bodies small. *)

let[@inline] is_freed obj = obj.addr < 0
let addr obj = obj.addr

let set_addr obj a =
  if a < 0 then invalid_arg "Obj_model.set_addr: negative address";
  if not (is_freed obj) then obj.addr <- a

let birth_epoch obj = obj.birth
let set_birth_epoch obj e = if not (is_freed obj) then obj.birth <- e
let nfields obj = obj.nfields

let[@inline never] field_out_of_bounds () =
  invalid_arg "Obj_model: field index out of bounds"

let[@inline] check_field obj i =
  if i < 0 || i >= obj.nfields then field_out_of_bounds ()

(* Offset of the extent's first word in [fpage]. *)
let[@inline] base obj = obj.foff land page_mask

let[@inline] field obj i =
  if is_freed obj then null
  else begin
    check_field obj i;
    Array.unsafe_get obj.fpage (base obj + i)
  end

let[@inline] set_field obj i v =
  if not (is_freed obj) then begin
    check_field obj i;
    Array.unsafe_set obj.fpage (base obj + i) v
  end

let iter_fields f obj =
  if not (is_freed obj) then begin
    let page = obj.fpage and off = base obj in
    for i = 0 to obj.nfields - 1 do
      f (Array.unsafe_get page (off + i))
    done
  end

let iteri_fields f obj =
  if not (is_freed obj) then begin
    let page = obj.fpage and off = base obj in
    for i = 0 to obj.nfields - 1 do
      f i (Array.unsafe_get page (off + i))
    done
  end

let fields_copy obj =
  if is_freed obj then [||] else Array.sub obj.fpage (base obj) obj.nfields

(* --- logged bits ------------------------------------------------------- *)

let ones n = if n >= inline_logged_max then -1 else (1 lsl n) - 1
let wide_words n = (n + inline_logged_max - 1) / inline_logged_max

(* Words of an object's extent: its fields, then the bitmap words of an
   object with more than 63 fields. *)
let extent_words n = if n <= inline_logged_max then n else n + wide_words n

(* The setters ignore freed handles, so an inline word keeps the bits it
   had at free. A wide object's bitmap goes back to the pool with its
   extent, so a freed wide handle reads all-logged rather than a later
   tenant's bits. *)

let field_logged obj i =
  check_field obj i;
  if obj.nfields <= inline_logged_max then (obj.logged lsr i) land 1 <> 0
  else if is_freed obj then true
  else begin
    let w = obj.fpage.(base obj + obj.nfields + (i / inline_logged_max)) in
    (w lsr (i mod inline_logged_max)) land 1 <> 0
  end

let set_field_logged obj i v =
  check_field obj i;
  if not (is_freed obj) then begin
    if obj.nfields <= inline_logged_max then begin
      let bit = 1 lsl i in
      obj.logged <- (if v then obj.logged lor bit else obj.logged land lnot bit)
    end
    else begin
      let page = obj.fpage in
      let idx = base obj + obj.nfields + (i / inline_logged_max) in
      let bit = 1 lsl (i mod inline_logged_max) in
      page.(idx) <- (if v then page.(idx) lor bit else page.(idx) land lnot bit)
    end
  end

let set_all_logged obj v =
  if not (is_freed obj) then begin
    let n = obj.nfields in
    if n <= inline_logged_max then obj.logged <- (if v then ones n else 0)
    else Array.fill obj.fpage (base obj + n) (wide_words n) (if v then -1 else 0)
  end

module Registry = struct
  type t = store

  let nil = -1
  let vacant = vacant

  (* [append_page table n page] stores [page] as page [n], doubling the
     table of page pointers when it is full; pages never move. *)
  let append_page table n page =
    let table =
      if n < Array.length table then table
      else begin
        let bigger = Array.make (2 * n) [||] in
        Array.blit table 0 bigger 0 n;
        bigger
      end
    in
    table.(n) <- page;
    table

  let first_pages page = append_page (Array.make 8 [||]) 0 page

  let create () =
    { handles = first_pages (Array.make page_words vacant);
      slots = 0;
      free_slots = Vec.create ~capacity:256 ();
      id_to_slot = first_pages (Array.make page_words 0);
      next_id = 1;
      pool = first_pages (Array.make page_words null);
      pool_pages = 1;
      pool_cur = 0;
      pool_used = 0;
      pool_free = Array.make 64 nil;
      bytes = 0;
      count = 0 }

  let add_pool_page reg page =
    let n = reg.pool_pages in
    reg.pool <- append_page reg.pool n page;
    reg.pool_pages <- n + 1;
    n

  (* Intrusive free lists: [pool_free.(n)] is the address of the most
     recently freed n-word extent, or [nil]; that extent's first word
     holds the next address. [pop_extent] leaves the link word in place
     for the caller's refill to overwrite. *)

  let pop_extent reg n =
    if n >= Array.length reg.pool_free then nil
    else begin
      let a = reg.pool_free.(n) in
      if a <> nil then
        reg.pool_free.(n) <- reg.pool.(a lsr page_bits).(a land page_mask);
      a
    end

  let push_extent reg n a =
    if n >= Array.length reg.pool_free then
      reg.pool_free <- Int_array.grow reg.pool_free (n + 1) nil;
    reg.pool.(a lsr page_bits).(a land page_mask) <- reg.pool_free.(n);
    reg.pool_free.(n) <- a

  (* A fresh extent reads null: pages are made null-filled and bump
     space is never reused except through the free lists. *)
  let pool_alloc reg len =
    if len = 0 then 0
    else begin
      let a = pop_extent reg len in
      if a <> nil then begin
        Array.fill reg.pool.(a lsr page_bits) (a land page_mask) len null;
        a
      end
      else if len > page_words then
        add_pool_page reg (Array.make len null) lsl page_bits
      else begin
        if reg.pool_used + len > page_words then begin
          let tail = page_words - reg.pool_used in
          if tail > 0 then
            push_extent reg tail ((reg.pool_cur lsl page_bits) + reg.pool_used);
          reg.pool_cur <- add_pool_page reg (Array.make page_words null);
          reg.pool_used <- 0
        end;
        let a = (reg.pool_cur lsl page_bits) + reg.pool_used in
        reg.pool_used <- reg.pool_used + len;
        a
      end
    end

  let register reg ~size ~nfields ~addr ~birth_epoch =
    if addr < 0 then invalid_arg "Obj_model.Registry.register: negative address";
    let id = reg.next_id in
    if id land page_mask = 0 then
      reg.id_to_slot <-
        append_page reg.id_to_slot (id lsr page_bits) (Array.make page_words 0);
    reg.next_id <- id + 1;
    let slot =
      if Vec.is_empty reg.free_slots then begin
        let s = reg.slots in
        if s land page_mask = 0 && s > 0 then
          reg.handles <-
            append_page reg.handles (s lsr page_bits) (Array.make page_words vacant);
        reg.slots <- s + 1;
        s
      end
      else Vec.pop reg.free_slots
    in
    let len = extent_words nfields in
    let foff = pool_alloc reg len in
    let fpage = reg.pool.(foff lsr page_bits) in
    (* New objects are born all-logged: the barrier ignores mutations to
       them, implementing the implicitly-dead optimization. *)
    let logged =
      if nfields <= inline_logged_max then ones nfields
      else begin
        Array.fill fpage ((foff land page_mask) + nfields) (len - nfields) (-1);
        0
      end
    in
    reg.id_to_slot.(id lsr page_bits).(id land page_mask) <- slot;
    let obj =
      { id; size; slot; fpage; addr; birth = birth_epoch; nfields; foff; logged }
    in
    reg.handles.(slot lsr page_bits).(slot land page_mask) <- obj;
    reg.bytes <- reg.bytes + size;
    reg.count <- reg.count + 1;
    obj

  (* A slot below [slots] holds its live handle or [vacant]. *)
  let[@inline] handle reg slot =
    Array.unsafe_get
      (Array.unsafe_get reg.handles (slot lsr page_bits))
      (slot land page_mask)

  (* The result is live unless it is [vacant] (id 0): callers compare
     ids, never destructure an option. Every id below [next_id] maps to
     a slot below [slots], whose handle page exists, so both page reads
     are unchecked. *)
  let[@inline] find_live reg id =
    if id <= 0 || id >= reg.next_id then vacant
    else begin
      let slot =
        Array.unsafe_get
          (Array.unsafe_get reg.id_to_slot (id lsr page_bits))
          (id land page_mask)
      in
      let h = handle reg slot in
      if h.id = id then h else vacant
    end

  let mem reg id = id <> null && (find_live reg id).id = id

  let free reg obj =
    if not (is_freed obj) then begin
      let len = extent_words obj.nfields in
      if len > 0 then push_extent reg len obj.foff;
      obj.addr <- -1;
      reg.handles.(obj.slot lsr page_bits).(obj.slot land page_mask) <- vacant;
      Vec.push reg.free_slots obj.slot;
      reg.bytes <- reg.bytes - obj.size;
      reg.count <- reg.count - 1
    end

  let count reg = reg.count
  let live_bytes reg = reg.bytes
  let slot_count reg = reg.slots

  let handle_at_live reg slot =
    if slot < 0 || slot >= reg.slots then vacant else handle reg slot

  let iter f reg =
    for slot = 0 to reg.slots - 1 do
      let h = handle reg slot in
      if h.id <> null then f h
    done

  let reachable_from reg roots =
    let seen = Mark_bitset.create () in
    let stack = Vec.create ~capacity:256 () in
    let visit id =
      if id <> null && (not (Mark_bitset.marked seen id)) && mem reg id then begin
        Mark_bitset.mark seen id;
        Vec.push stack id
      end
    in
    List.iter visit roots;
    while not (Vec.is_empty stack) do
      iter_fields visit (find_live reg (Vec.pop stack))
    done;
    seen
end
