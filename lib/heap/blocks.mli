(** Per-block metadata.

    Blocks move through states: [Free] (on the global free list),
    [Recyclable] (partially free, on the recyclable list), [Owned] (held
    by a thread-local allocator), [In_use] (retired, holding data), and
    [Los_backing] (carved out to back a large object, invisible to the
    block allocators). The [young] flag marks blocks that were handed out
    completely free during the current RC epoch and therefore contain only
    young objects — the young-sweep and all-young-evacuation candidates
    (§3.3.1/§3.3.2). *)

type state = Free | Recyclable | Owned | In_use | Los_backing

type t

val create : Heap_config.t -> t

val state : t -> int -> state

(** [set_state t b st] moves block [b] to [st] and updates the per-state
    counts {!count_state} reads. The counts are plain ints, not atomics:
    call [set_state] only on the domain that owns the heap (allocators,
    collector phases, and the ordered [merge] of a [Par] packet run,
    which runs on the caller) — never inside a packet body. Fleet
    replicas own separate heaps. *)
val set_state : t -> int -> state -> unit

val young : t -> int -> bool
val set_young : t -> int -> bool -> unit

(** [clear_young t] drops the young flag on every block. *)
val clear_young : t -> unit

(** Evacuation-target flag (the block belongs to the current evacuation
    set). *)
val target : t -> int -> bool

val set_target : t -> int -> bool -> unit

(** Resident object ids. The list may contain stale ids of freed or moved
    objects; consumers must filter (see {!compact}). *)
val residents : t -> int -> Repro_util.Vec.t

val add_resident : t -> int -> int -> unit

(** [compact t b ~live] rebuilds block [b]'s resident list keeping only
    ids that satisfy [live]. *)
val compact : t -> int -> live:(int -> bool) -> unit

(** [iter_state t st f] applies [f] to every block index in state [st]. *)
val iter_state : t -> state -> (int -> unit) -> unit

(** [count_state t st] is the number of blocks in state [st]: an O(1)
    read of the counts {!set_state} keeps, cheap enough for a collector
    trigger polled on every allocation. *)
val count_state : t -> state -> int

val total : t -> int
