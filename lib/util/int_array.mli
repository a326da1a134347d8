(** Copies between [int array]s.

    [Array.blit] is polymorphic, so once its destination sits in the
    major heap it stores every word through the write barrier
    ([caml_modify]), even when the words are immediate ints. These
    copies are typed at [int] and compile to plain stores. The object
    store's free-list heads, {!Vec} and the replayer's reverse id map
    grow through {!grow}. *)

(** [blit src src_pos dst dst_pos len] copies like [Array.blit],
    overlapping ranges included. Raises [Invalid_argument] when either
    range is out of bounds. *)
val blit : int array -> int -> int array -> int -> int -> unit

(** [grow a needed fill] is a fresh array holding [a]'s elements
    followed by [fill]. Its length is [length a] (or 1 if [a] is empty)
    doubled until it is at least [needed]. *)
val grow : int array -> int -> int -> int array
