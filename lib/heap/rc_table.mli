(** The reference count table (§3.2.1).

    One [rc_bits]-wide saturating counter per 16-byte granule of the heap,
    reachable from an object address by simple address arithmetic. A count
    of [stuck_count] is stuck: further increments and decrements are
    ignored and the object must be reclaimed by the SATB trace. Free lines
    and blocks have all-zero counts, which is also how the allocator finds
    holes and how the sweep identifies reclaimable lines and blocks.

    Counters exist only at object-start granules — with one exception:
    when an object straddles lines, LXR writes a non-zero marker into the
    entry of each trailing line except the last so the allocator never
    reuses those lines ([mark_straddle]). *)

type t

val create : Heap_config.t -> t

(** [get t cfg addr] is the count stored for the granule at [addr]. [addr]
    must be granule aligned. *)
val get : t -> Heap_config.t -> int -> int

(** [set t cfg addr v] stores [v] (clamped to the representable range). *)
val set : t -> Heap_config.t -> int -> int -> unit

(** What {!inc} and {!dec} return when the count was, or just became,
    stuck (so it was left alone or must now be left alone). Negative, so
    it never equals a count. *)
val stuck : int

(** What {!dec} returns when the count was already zero (a bug in the
    caller; exposed for tests). Negative, so it never equals a count. *)
val underflow : int

(** [inc t cfg addr] applies a saturating increment and returns the new
    count [n] for an ordinary [n-1 -> n] increment (so [1] identifies a
    surviving young object), or {!stuck} when the count was, or just
    became, stuck. With [rc_bits = 1] the first increment already
    sticks. Allocates nothing. *)
val inc : t -> Heap_config.t -> int -> int

(** [dec t cfg addr] applies a decrement and returns the new count (so
    [0] means the object died), {!stuck} when the count is stuck and
    therefore not decremented, or {!underflow} when it was already
    zero. Allocates nothing. *)
val dec : t -> Heap_config.t -> int -> int

(** [clear_range t cfg ~addr ~size] zeroes every granule entry covered by
    an object of [size] bytes at [addr] — its header count and any
    straddle markers — exactly as {!set} [_ 0] on each of them would,
    occupancy counts included. [addr] must be granule aligned. *)
val clear_range : t -> Heap_config.t -> addr:int -> size:int -> unit

(** [mark_straddle t cfg ~addr ~size] writes the straddle marker into the
    first granule of each trailing line except the last, for an object
    larger than a line (§3.1). No-op for objects within a line. *)
val mark_straddle : t -> Heap_config.t -> addr:int -> size:int -> unit

(** [line_is_free t cfg gline] is true when every granule entry in global
    line [gline] is zero. *)
val line_is_free : t -> Heap_config.t -> int -> bool

(** [block_is_free t cfg b] is true when every line of block [b] is
    free. *)
val block_is_free : t -> Heap_config.t -> int -> bool

(** [free_lines_in_block t cfg b] counts free lines in block [b]. *)
val free_lines_in_block : t -> Heap_config.t -> int -> int

(** [live_granules_in_block t cfg b] counts non-zero entries, the paper's
    upper bound on live data used for evacuation target selection
    (§3.3.2). *)
val live_granules_in_block : t -> Heap_config.t -> int -> int

(** [iter_nonzero t cfg f] calls [f ~granule ~count] for every granule
    with a non-zero entry, in address order. Skips packed all-zero bytes
    wholesale, so a mostly-empty table scans in O(heap / 64) — cheap
    enough for the integrity verifier to run at every safepoint. *)
val iter_nonzero : t -> Heap_config.t -> (granule:int -> count:int -> unit) -> unit
