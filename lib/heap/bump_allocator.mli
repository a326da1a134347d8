(** Thread-local bump-pointer allocation into Immix blocks (§3.1).

    The allocator holds one current block and one overflow block. The fast
    path bumps a cursor; when an object does not fit and is larger than a
    line, the dynamic-overflow optimization places it in a dedicated
    initially-free block rather than wasting the remaining lines. Holes in
    recyclable blocks are found by scanning the reference count table,
    with the Immix conservative rule that the first free line after a used
    line is unavailable (straddling objects). Freshly claimed memory is
    zeroed in bulk and accounted in the work {!receipt}, which the engine
    converts to virtual time. *)

type receipt = {
  mutable slow_allocs : int;  (** hole searches and block acquisitions *)
  mutable blocks_acquired : int;
  mutable bytes_zeroed : int;
}

type t

val create :
  Heap_config.t -> rc:Rc_table.t -> blocks:Blocks.t -> free:Free_lists.t ->
  reuse:Reuse_table.t -> t

(** [alloc_addr t ~size] returns the address of a fresh, zeroed,
    granule-aligned region of [size] bytes (which must be
    [<= los_threshold] and granule aligned), or [-1] when no block can
    satisfy it — the caller's cue to collect. Newly handed-out
    completely-free blocks are flagged young. *)
val alloc_addr : t -> size:int -> int

(** [retire_all t] returns the allocator's owned blocks to the [In_use]
    state and forgets its cursors. Called at every stop-the-world pause so
    sweeps observe a consistent heap. *)
val retire_all : t -> unit

(** The accumulated work receipt. The engine reads and then {!reset}s
    it. *)
val receipt : t -> receipt

val reset_receipt : t -> unit
