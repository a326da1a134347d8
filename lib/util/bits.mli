(** Small bit-twiddling helpers shared by side-metadata tables. *)

(** [clz63 v] counts leading zeros of [v] viewed as a 63-bit value.
    [clz63 1 = 62]; requires [v >= 1]. *)
val clz63 : int -> int

(** [is_power_of_two v] for [v >= 1]. *)
val is_power_of_two : int -> bool

(** [log2 v] is the floor of log2 for [v >= 1]. *)
val log2 : int -> int

(** [round_up v align] rounds [v] up to a multiple of power-of-two
    [align]. *)
val round_up : int -> int -> int
