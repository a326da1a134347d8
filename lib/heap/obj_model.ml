open Repro_util

let null = 0

(* Each object's metadata lives in its canonical handle record: address,
   birth epoch, field extent and logged word. The record is the one
   allocation [register] makes. The store keeps one slot-indexed array,
   [handles], plus the shared pools the extents point into:

   - object fields are (offset, length) extents in one pooled [int]
     buffer, not per-object [int array]s;
   - the coalescing barrier's logged bits are a single inline word in the
     handle when the object has <= 63 fields (the overwhelmingly common
     case), and a pooled extent of the [wide] buffer otherwise.

   Freed extents of each length form an intrusive LIFO list: the head
   offset sits in an [int array] indexed by length and each free extent's
   first word links to the next, so neither registration nor freeing
   allocates beyond the handle. A reused extent is refilled whole, link
   word included.

   External ids stay monotonic allocation-sequence numbers (so recorded
   traces replay with identical ids); *slots* are recycled through a
   free-slot stack. Freeing sets the handle's own [addr] to -1, and an
   id resolves only while [handles.(slot)] is still its handle, so a
   stale handle reads as freed forever and can only see or change its
   own dead record, even after its slot has been reused. *)

type store = {
  mutable handles : t array;  (* slot -> canonical handle, or [none] *)
  mutable slots : int;  (* high-water slot count *)
  free_slots : Vec.t;
  (* shared field pool: one flat buffer, free extents listed by length *)
  mutable pool : int array;
  mutable pool_top : int;
  mutable pool_free : int array;  (* index = extent length *)
  (* logged-word pool for objects with > 63 fields *)
  mutable wide : int array;
  mutable wide_top : int;
  mutable wide_free : int array;  (* index = extent length in words *)
  (* id-indexed: id -> slot, valid only while [handles.(slot).id] = id *)
  mutable id_to_slot : int array;
  mutable next_id : int;
  mutable bytes : int;
  mutable count : int;
  (* The shared "no object" sentinel: id 0 (= null, never assigned to a
     real object) and address -1, so it reads as freed forever. Filling
     [handles] with it instead of [None] means registration stores the
     canonical handle without boxing an option. *)
  none : t;
}

and t = {
  id : int;
  size : int;
  slot : int;
  store : store;
  mutable addr : int;  (* -1 once freed *)
  mutable birth : int;
  nfields : int;
  foff : int;  (* field extent offset into [store.pool] *)
  mutable logged : int;  (* inline logged word, or offset into [store.wide] *)
}

let inline_logged_max = 63

(* Store invariant: a live object's field extent [foff, foff + nfields)
   sits inside [pool] (which never shrinks), so the accessors below read
   it unchecked once [is_freed] has resolved liveness. The explicit
   [check_field] bound on the caller-supplied index is the one check that
   must stay.

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

let[@inline] field obj i =
  if is_freed obj then null
  else begin
    check_field obj i;
    Array.unsafe_get obj.store.pool (obj.foff + i)
  end

let[@inline] set_field obj i v =
  if not (is_freed obj) then begin
    check_field obj i;
    Array.unsafe_set obj.store.pool (obj.foff + i) v
  end

let iter_fields f obj =
  if not (is_freed obj) then begin
    let pool = obj.store.pool and off = obj.foff in
    for i = 0 to obj.nfields - 1 do
      f (Array.unsafe_get pool (off + i))
    done
  end

let iteri_fields f obj =
  if not (is_freed obj) then begin
    let pool = obj.store.pool and off = obj.foff in
    for i = 0 to obj.nfields - 1 do
      f i (Array.unsafe_get pool (off + i))
    done
  end

let fields_copy obj =
  if is_freed obj then [||] else Array.sub obj.store.pool obj.foff obj.nfields

(* --- logged bits ------------------------------------------------------- *)

let ones n = if n >= inline_logged_max then -1 else (1 lsl n) - 1
let wide_words n = (n + inline_logged_max - 1) / inline_logged_max

(* The setters ignore freed handles, so an inline word keeps the bits it
   had at free. A wide object's bitmap goes back to the pool at free, so
   a freed wide handle reads all-logged rather than a later tenant's
   bits. *)

let field_logged obj i =
  check_field obj i;
  if obj.nfields <= inline_logged_max then (obj.logged lsr i) land 1 <> 0
  else if is_freed obj then true
  else begin
    let w = obj.store.wide.(obj.logged + (i / inline_logged_max)) in
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
      let wide = obj.store.wide in
      let idx = obj.logged + (i / inline_logged_max) in
      let bit = 1 lsl (i mod inline_logged_max) in
      wide.(idx) <- (if v then wide.(idx) lor bit else wide.(idx) land lnot bit)
    end
  end

let set_all_logged obj v =
  if not (is_freed obj) then begin
    let n = obj.nfields in
    if n <= inline_logged_max then obj.logged <- (if v then ones n else 0)
    else Array.fill obj.store.wide obj.logged (wide_words n) (if v then -1 else 0)
  end

module Registry = struct
  type t = store

  let nil = -1

  (* [ids_hint]: the expected highest external id, used to presize the
     id-indexed map. A replayer knows it exactly from the trace, turning
     doubling-growth churn into one right-sized allocation. *)
  let create ?(ids_hint = 4096) () =
    let ids_hint = max 16 ids_hint in
    let rec reg =
      { handles = [||];
        slots = 0;
        free_slots = Vec.create ~capacity:256 ();
        pool = Array.make 8192 null;
        pool_top = 0;
        pool_free = Array.make 64 nil;
        wide = Array.make 64 0;
        wide_top = 0;
        wide_free = Array.make 8 nil;
        id_to_slot = Array.make ids_hint (-1);
        next_id = 1;
        bytes = 0;
        count = 0;
        none }
    and none =
      { id = null;
        size = 0;
        slot = 0;
        store = reg;
        addr = -1;
        birth = 0;
        nfields = 0;
        foff = 0;
        logged = 0 }
    in
    reg.handles <- Array.make 1024 none;
    reg

  (* Intrusive free lists: [heads.(n)] is the offset of the most recently
     freed n-word extent of [buf], or [nil]; that extent's first word
     holds the next offset. [pop_extent] leaves the link word in place
     for the caller's refill to overwrite. *)

  let pop_extent heads buf n =
    if n >= Array.length heads then nil
    else begin
      let off = heads.(n) in
      if off <> nil then heads.(n) <- buf.(off);
      off
    end

  let push_extent heads buf n off =
    buf.(off) <- heads.(n);
    heads.(n) <- off

  let pool_alloc reg len =
    if len = 0 then 0
    else begin
      let off = pop_extent reg.pool_free reg.pool len in
      if off <> nil then begin
        Array.fill reg.pool off len null;
        off
      end
      else begin
        if reg.pool_top + len > Array.length reg.pool then
          reg.pool <- Int_array.grow reg.pool (reg.pool_top + len) null;
        let off = reg.pool_top in
        reg.pool_top <- off + len;
        off
      end
    end

  let pool_release reg off len =
    if len > 0 then begin
      if len >= Array.length reg.pool_free then
        reg.pool_free <- Int_array.grow reg.pool_free (len + 1) nil;
      push_extent reg.pool_free reg.pool len off
    end

  let wide_alloc reg words =
    let off = pop_extent reg.wide_free reg.wide words in
    let off =
      if off <> nil then off
      else begin
        if reg.wide_top + words > Array.length reg.wide then
          reg.wide <- Int_array.grow reg.wide (reg.wide_top + words) 0;
        let off = reg.wide_top in
        reg.wide_top <- off + words;
        off
      end
    in
    Array.fill reg.wide off words (-1);
    off

  let wide_release reg off words =
    if words >= Array.length reg.wide_free then
      reg.wide_free <- Int_array.grow reg.wide_free (words + 1) nil;
    push_extent reg.wide_free reg.wide words off

  let register reg ~size ~nfields ~addr ~birth_epoch =
    if addr < 0 then invalid_arg "Obj_model.Registry.register: negative address";
    let id = reg.next_id in
    reg.next_id <- id + 1;
    let slot =
      if Vec.is_empty reg.free_slots then begin
        let s = reg.slots in
        reg.slots <- s + 1;
        if s >= Array.length reg.handles then begin
          let h = Array.make (2 * Array.length reg.handles) reg.none in
          Array.blit reg.handles 0 h 0 (Array.length reg.handles);
          reg.handles <- h
        end;
        s
      end
      else Vec.pop reg.free_slots
    in
    let foff = pool_alloc reg nfields in
    (* New objects are born all-logged: the barrier ignores mutations to
       them, implementing the implicitly-dead optimization. *)
    let logged =
      if nfields <= inline_logged_max then ones nfields
      else wide_alloc reg (wide_words nfields)
    in
    if id >= Array.length reg.id_to_slot then
      reg.id_to_slot <- Int_array.grow reg.id_to_slot (id + 1) (-1);
    reg.id_to_slot.(id) <- slot;
    let obj =
      { id; size; slot; store = reg; addr; birth = birth_epoch; nfields; foff; logged }
    in
    reg.handles.(slot) <- obj;
    reg.bytes <- reg.bytes + size;
    reg.count <- reg.count + 1;
    obj

  let none_handle reg = reg.none

  (* The result is live unless it is the store's [none] sentinel (id 0):
     callers compare ids, never destructure an option. *)
  let[@inline] find_live reg id =
    if id <= 0 || id >= Array.length reg.id_to_slot then reg.none
    else begin
      (* A non-negative [id_to_slot] entry is always a valid slot index
         (set at registration, and [handles] never shrinks). *)
      let slot = Array.unsafe_get reg.id_to_slot id in
      if slot < 0 then reg.none
      else begin
        let h = Array.unsafe_get reg.handles slot in
        if h.id = id then h else reg.none
      end
    end

  let mem reg id = id <> null && (find_live reg id).id = id

  let free reg obj =
    if not (is_freed obj) then begin
      let n = obj.nfields in
      pool_release reg obj.foff n;
      if n > inline_logged_max then wide_release reg obj.logged (wide_words n);
      obj.addr <- -1;
      reg.handles.(obj.slot) <- reg.none;
      Vec.push reg.free_slots obj.slot;
      reg.bytes <- reg.bytes - obj.size;
      reg.count <- reg.count - 1
    end

  let count reg = reg.count
  let live_bytes reg = reg.bytes
  let slot_count reg = reg.slots

  (* A slot below [slots] holds its live handle or [none]. *)
  let handle_at_live reg slot =
    if slot < 0 || slot >= reg.slots then reg.none
    else Array.unsafe_get reg.handles slot

  let iter f reg =
    for slot = 0 to reg.slots - 1 do
      let h = Array.unsafe_get reg.handles slot in
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
