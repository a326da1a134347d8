(** Growable arrays of immediate integers.

    The simulator's hot paths (decrement buffers, mark stacks, remembered
    sets, per-block object lists) append and drain millions of [int]
    entries; [Vec.t] provides an unboxed growable array for them. OCaml
    5.1's standard library has no [Dynarray] yet, hence this module. *)

type t

(** [create ?capacity ()] is an empty vector. *)
val create : ?capacity:int -> unit -> t

(** Number of elements currently stored. *)
val length : t -> int

val is_empty : t -> bool

(** [push v x] appends [x], growing the backing store as needed. *)
val push : t -> int -> unit

(** [pop v] removes and returns the last element. Raises [Invalid_argument]
    if empty. *)
val pop : t -> int

(** [get v i] / [set v i x] with bounds checking against [length]. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** [clear v] resets the length to zero without shrinking storage. *)
val clear : t -> unit

(** [retain p v] keeps only the elements satisfying [p], in place and
    preserving order — the allocation-free filter the sweep uses to
    compact per-block resident lists. *)
val retain : (int -> bool) -> t -> unit

(** [iter f v] applies [f] to each element in insertion order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f init v] folds left over the elements. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [exists p v] is true if any element satisfies [p]. *)
val exists : (int -> bool) -> t -> bool

(** [to_list v] copies the contents out. *)
val to_list : t -> int list

(** [of_list xs] builds a vector from a list. *)
val of_list : int list -> t

(** [append dst src] pushes all of [src] onto [dst]. *)
val append : t -> t -> unit

(** [sort cmp v] sorts in place: a heap sort, O(n log n) on any input,
    that allocates nothing and is not stable. *)
val sort : (int -> int -> int) -> t -> unit
