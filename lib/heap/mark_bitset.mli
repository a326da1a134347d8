(** SATB mark bits (§3.2.2).

    Indexed by object id rather than by address: the simulator's ids are
    stable across evacuation, so an id-indexed bit is equivalent to the
    paper's address-indexed side metadata plus the bit-forwarding that
    evacuation would otherwise require (deviation documented in
    DESIGN.md §4). The set grows automatically with the id space. *)

type t

val create : unit -> t

val mark : t -> int -> unit

(** [marked t id]; ids never marked are unmarked. *)
val marked : t -> int -> bool

(** [clear t] unmarks everything (end of an SATB epoch). *)
val clear : t -> unit

(** [iter_marked t f] calls [f] on every marked id in increasing order
    (audit support; skips zero bytes, so sparse sets iterate quickly). *)
val iter_marked : t -> (int -> unit) -> unit
