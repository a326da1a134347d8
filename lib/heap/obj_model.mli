(** Simulated objects and the object store.

    References between objects are integer ids ([0] is null) rather than
    OCaml pointers, so an independent reachability oracle can audit the
    collectors (see {!Registry.reachable_from}). Each object records its
    current simulated address; evacuation reassigns the address while the
    id — and therefore every "pointer" — stays valid, which plays the role
    of the forwarding pointer in the real system.

    Each object's metadata (address, birth epoch, field extent, logged
    word) lives in its canonical handle, the one record registration
    allocates. The store keeps a single slot-indexed array of handles;
    object fields live as (offset, length) extents in one shared pooled
    [int] buffer, and the logged bits live in a single inline word for
    objects with <= 63 fields. Freed extents are recycled through
    intrusive per-length free lists, so neither registration nor freeing
    allocates beyond the handle. External ids are monotonic
    allocation-sequence numbers (never reused, so recorded traces replay
    with identical ids); slots are recycled through a free-slot stack.
    Freeing marks the handle's own record, so a stale handle to a freed
    object reads as freed forever and can only see or change its own dead
    record, even after its slot has been reused by a new object.

    Per-field logged bits implement the coalescing write barrier's
    unlogged-bit side metadata (§3.4): a set bit means the field has
    already been logged this epoch (or the object is new) and the barrier
    fast path applies. *)

(** The null reference. *)
val null : int

(** The backing store ({!Registry.t}): the slot-indexed handle array and
    the shared field and bitmap pools. *)
type store

(** An object handle: the external id, the object's (immutable) size, the
    slot it occupies in the store, and the object's metadata. Handles are
    canonical — {!Registry.get} and {!Registry.find} return the one handle
    allocated at registration, so holding or re-looking-up objects never
    allocates. *)
type t = private {
  id : int;  (** monotonic allocation-sequence number; never reused *)
  size : int;  (** bytes, granule aligned, including header *)
  slot : int;  (** dense store index; recycled after free *)
  store : store;
  (* The object's metadata. Outside this module, read it only through
     the accessors below: they define what a freed handle reads. *)
  mutable addr : int;
  mutable birth : int;
  nfields : int;
  foff : int;
  mutable logged : int;
}

(** [is_freed obj] — true once the object is freed, forever: freeing
    marks the handle's own record, which a later tenant of its slot
    never touches. *)
val is_freed : t -> bool

(** [addr obj] is the current simulated address, or [-1] once freed. *)
val addr : t -> int

(** [set_addr obj a] reassigns the address (evacuation). No-op if freed.
    Raises [Invalid_argument] if [a] is negative. *)
val set_addr : t -> int -> unit

(** RC epoch in which the object was allocated (see {!set_birth_epoch}).
    A freed handle keeps the epoch it had at free. *)
val birth_epoch : t -> int

(** No-op if freed. *)
val set_birth_epoch : t -> int -> unit

(** Number of reference fields (fixed at registration, freed or not). *)
val nfields : t -> int

(** [field obj i] is the referent id in field [i] ({!null} if empty or
    the object is freed). Raises [Invalid_argument] when [i] is out of
    bounds for a live object. *)
val field : t -> int -> int

val set_field : t -> int -> int -> unit

(** [iter_fields f obj] applies [f] to each referent id in field order
    (no-op on freed objects). *)
val iter_fields : (int -> unit) -> t -> unit

val iteri_fields : (int -> int -> unit) -> t -> unit

(** Snapshot of the fields as a fresh array ([[||]] if freed). *)
val fields_copy : t -> int array

(** [field_logged obj i] / [set_field_logged obj i v]: the unlogged-bit
    protocol. New objects are created all-logged. Both raise
    [Invalid_argument] when [i] is out of bounds. The setters are no-ops
    on a freed handle, so it reads the bits it had at free — except that
    an object with more than 63 fields returns its bitmap to the pool at
    free and then reads all-logged. *)
val field_logged : t -> int -> bool

val set_field_logged : t -> int -> bool -> unit

(** [set_all_logged obj v] bulk-sets every field's bit — used when a young
    object survives its first collection and must start logging. No-op
    if freed. *)
val set_all_logged : t -> bool -> unit

module Registry : sig
  (** The id -> object map over the store. Freeing an object recycles
      its slot and field extent; its id is never reused. *)

  type obj := t
  type t = store

  (** [create ?ids_hint ()] — [ids_hint] presizes the id-indexed map (a
      replayer knows the highest id exactly from the trace ring, turning
      doubling-growth churn into one right-sized allocation). *)
  val create : ?ids_hint:int -> unit -> t

  (** [register reg ~size ~nfields ~addr ~birth_epoch] creates a fresh
      object with all-null fields and all-logged bits, installs it, and
      returns its canonical handle — the only allocation it makes once
      the store's buffers have grown to the live set and the id map to
      the new id (see [ids_hint]). Raises [Invalid_argument] if [addr]
      is negative. *)
  val register : t -> size:int -> nfields:int -> addr:int -> birth_epoch:int -> obj

  (** [get reg id] raises [Not_found] if [id] is null or freed. *)
  val get : t -> int -> obj

  val find : t -> int -> obj option

  (** The store's shared "no object" sentinel: a handle with [id = null]
      that reads as freed forever. {!find_live} returns it in place of
      [None] so lookups on hot paths never box an option. *)
  val none_handle : t -> obj

  (** [find_live reg id] is the canonical handle when [id] is live, and
      [none_handle reg] otherwise (test [(find_live reg id).id = null]).
      Allocation-free, unlike {!find} which boxes a [Some] per hit. *)
  val find_live : t -> int -> obj

  val mem : t -> int -> bool

  (** [free reg obj] removes the object, recycles its slot and field
      extent, and marks it freed. Allocation-free. *)
  val free : t -> obj -> unit

  (** Number of live (registered) objects. *)
  val count : t -> int

  (** Total bytes of live objects. *)
  val live_bytes : t -> int

  (** Iterates live objects in ascending slot order. *)
  val iter : (obj -> unit) -> t -> unit

  (** One past the highest slot ever occupied — the range registry work
      packets partition over ([iter] ≡ visiting [handle_at] for slots
      [0 .. slot_count - 1]). *)
  val slot_count : t -> int

  (** The live object occupying [slot], if any. *)
  val handle_at : t -> int -> obj option

  (** [handle_at_live reg slot] is {!handle_at} without the option box:
      the occupying handle, or {!none_handle} when the slot is empty —
      the form slot-partitioned scan packets use. *)
  val handle_at_live : t -> int -> obj

  (** [reachable_from reg roots] is the id set reachable from [roots] by
      following fields — the oracle used by correctness tests. Returned
      as an id-indexed bitset. *)
  val reachable_from : t -> int list -> Mark_bitset.t
end
