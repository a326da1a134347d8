(** The simulated Immix heap: blocks, lines, side metadata, objects.

    This facade owns every table and provides the operations collectors
    and mutators need: allocation (block-structured or large-object),
    reference count manipulation with straddle-line maintenance, object
    reclamation, evacuation, RC-based sweeping, and a reachability oracle
    for correctness audits.

    Large objects (> [los_threshold]) are backed by whole blocks carved
    out of the free list ([Los_backing] state); their address is the first
    backing block's start, so the RC table covers them by the same address
    arithmetic, but only their header granule carries a count and they are
    never evacuated. *)

type t = {
  cfg : Heap_config.t;
  rc : Rc_table.t;
  marks : Mark_bitset.t;
  reuse : Reuse_table.t;
  blocks : Blocks.t;
  free : Free_lists.t;
  registry : Obj_model.Registry.t;
  los_next : int array;
      (** LOS backing extents as chains, one entry per block: a LOS
          object's extent starts at its first backing block (the block
          of its address) and each backing block's entry is the next one
          in acquisition order, or [-1] after the last *)
  touched : Bytes.t;
      (** bitset of blocks allocated into since the last pause — the
          young-sweep set *)
  mutable allocators : Bump_allocator.t list;
  reserve : Repro_util.Vec.t;
      (** to-space reserve: blocks withheld from allocation so emergency
          compaction always has copy destinations (stack; newest last) *)
  reserve_member : Bytes.t;
      (** one byte per block, non-zero iff the block is on [reserve] —
          the O(1) view behind {!in_reserve} *)
  mark_gray : Repro_util.Vec.t;
  mark_next : Repro_util.Vec.t;
      (** scratch frontiers of the mark kernels ({!Repro_engine.Gc_kernels});
          per-heap because fleet replicas collect their heaps concurrently *)
  mutable sweep_dead : Obj_model.t array;
      (** scratch dead-list for {!sweep_block}, per-heap for the same
          reason *)
  mutable epoch : int;  (** current RC epoch number *)
  mutable on_pre_pause : unit -> unit;
      (** invoked at the start of {!retire_all_allocators} — i.e. before
          every stop-the-world pause. Default [ignore]; the verifier
          installs its pre-pause safepoint check here. Must not allocate
          from or mutate the heap. *)
}

(** [create cfg] builds an empty heap with every block on the free
    list. *)
val create : Heap_config.t -> t

(** [make_allocator t] is a fresh thread-local bump allocator over this
    heap, tracked so pauses can retire it. *)
val make_allocator : t -> Bump_allocator.t

(** [retire_all_allocators t] runs the [on_pre_pause] hook and retires
    every allocator created by {!make_allocator} — the first step of
    every stop-the-world pause. *)
val retire_all_allocators : t -> unit

(** [touched_blocks t] is the blocks allocated into since the last
    {!clear_touched} — the sweep set for young reclamation — as a fresh
    array in ascending block order. *)
val touched_blocks : t -> int array

(** [block_touched t b] is the membership test behind {!touched_blocks}. *)
val block_touched : t -> int -> bool

val clear_touched : t -> unit

(** [is_los t obj] is true for large-object-space residents: live
    objects whose size is above [los_threshold]. *)
val is_los : t -> Obj_model.t -> bool

(** [los_extent t obj] is the list of backing blocks of a LOS object in
    acquisition order ([[]] for non-LOS objects). *)
val los_extent : t -> Obj_model.t -> int list

(** [alloc_fast t alloc_ ~size ~nfields] allocates and registers an
    object. [size] is rounded up to the granule; sizes above
    [los_threshold] go to the large object space. When the heap cannot
    satisfy the request (the caller should collect and retry) it returns
    {!Obj_model.Registry.vacant} (test [obj.id = Obj_model.null]). A
    successful small allocation's only box is the handle record. *)
val alloc_fast : t -> Bump_allocator.t -> size:int -> nfields:int -> Obj_model.t

(** [rc_of t obj] is the object's current reference count. *)
val rc_of : t -> Obj_model.t -> int

(** [rc_inc t obj] increments, maintaining straddle markers on the
    [0 -> 1] transition (§3.1). Result as {!Rc_table.inc}: the new count
    or {!Rc_table.stuck}. *)
val rc_inc : t -> Obj_model.t -> int

(** [rc_dec t obj]. Result as {!Rc_table.dec}. The caller decides what
    to do on [0]; the count itself is already zero. *)
val rc_dec : t -> Obj_model.t -> int

(** [rc_is_stuck t obj]. *)
val rc_is_stuck : t -> Obj_model.t -> bool

(** [pin t obj] sets the object's header count to the stuck value and
    writes its straddle markers. Tracing (non-RC) collectors pin every
    object at allocation so the shared line-liveness metadata — and hence
    the bump allocator's hole search — remains meaningful; reclamation
    then goes through {!free_object}, which clears the entries. *)
val pin : t -> Obj_model.t -> unit

(** [free_object t obj] clears the object's RC entries (header and
    straddle markers), releases LOS backing blocks, and removes it from
    the registry. Idempotent on already-freed objects. *)
val free_object : t -> Obj_model.t -> unit

(** [evacuate t gc_alloc obj] copies [obj] to a fresh location obtained
    from [gc_alloc], moving its reference count and straddle markers, and
    updates block residency. Returns [false] (object left in place) if no
    space is available or the object is a large object. *)
val evacuate : t -> Bump_allocator.t -> Obj_model.t -> bool

(** [classify_block t b] is the state block [b]'s RC table implies:
    [Free] when every count is zero, [Recyclable] when some line is
    free, [In_use] otherwise. *)
val classify_block : t -> int -> Blocks.state

(** [rc_sweep_block t b] inspects block [b]'s RC table after an RC epoch:
    frees it entirely (returning it to the free list) when all counts are
    zero, lists it as recyclable when it has free lines, and leaves it in
    use otherwise. Dead residents (rc = 0) are freed from the registry.
    Returns the classification and the number of freed object bytes. *)
val rc_sweep_block :
  t -> int -> [ `Freed | `Recyclable of int | `Full ] * int

(** [sweep_block ?on_free t b ~dead] looks each of block [b]'s
    residents up once: it compacts [b]'s resident list to the survivors
    and lists the dead — live, still resident in [b], and satisfying
    [dead] — then frees the dead in resident order ([on_free] sees each
    object just before its free; an id listed twice is freed once). It
    then clears [b]'s young flag and classifies it with
    {!classify_block}, releasing [Free] and [Recyclable] blocks onto
    their lists. Returns the classification and the freed bytes. *)
val sweep_block :
  ?on_free:(Obj_model.t -> unit) ->
  t ->
  int ->
  dead:(Obj_model.t -> bool) ->
  [ `Freed | `Recyclable of int | `Full ] * int

(** [available_blocks t] is the number of blocks on the free list. *)
val available_blocks : t -> int

(** [release_reserve t] returns the to-space reserve to the free list —
    called at the start of an emergency (compacting) collection so the
    evacuation has guaranteed destinations. *)
val release_reserve : t -> unit

(** [in_reserve t b]: [b] is one of the to-space reserve's blocks, which
    are [In_use] with all-zero counts — sweeps must skip them. O(1). *)
val in_reserve : t -> int -> bool

(** [ensure_reserve t] tops the reserve back up (to ~1/16 of the heap)
    from the free list, with priority over the mutator: starving the
    allocator slightly early forces a collection that is then guaranteed
    to make progress. Collectors call this after each major collection. *)
val ensure_reserve : t -> unit

(** [rebuild_free_lists t] drops both lists and re-releases every [Free]
    and [Recyclable] block — used by collectors that reclassify blocks
    wholesale. *)
val rebuild_free_lists : t -> unit

(** [live_bytes_in_block ?live t b] sums the sizes of block [b]'s
    registered residents that satisfy [live] (default: all of them). *)
val live_bytes_in_block : ?live:(Obj_model.t -> bool) -> t -> int -> int

(** [live_bytes t] is total registered object bytes. *)
val live_bytes : t -> int

(** [total_bytes t] is the configured heap size. *)
val total_bytes : t -> int
