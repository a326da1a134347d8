(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through an explicit [Prng.t] so
    that every experiment is reproducible from its seed. The generator is
    SplitMix64 (Steele et al., OOPSLA 2014): fast, high quality for
    simulation purposes, and trivially splittable.

    Draws allocate nothing: the 64-bit state is a raw word in a byte
    buffer (not a boxed [int64] field), and the mixing and float
    conversion are inlined, so [next], [int], [bool] and
    [geometric_size] keep every intermediate unboxed. [float] and
    [exponential] also allocate nothing where the caller inlines them
    (the release profile); otherwise the returned float is boxed. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] derives a new generator from [t], advancing [t]. Streams of
    the parent and child are statistically independent. *)
val split : t -> t

(** [next t] is the next raw 64-bit output (as an OCaml [int], so 63 bits
    of it; the sign bit is cleared). *)
val next : t -> int

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0, bound\]]. It divides the
    62-bit {!next} draw by [max_int] in floating point; a draw that
    rounds up to 2^62 (about 1 in 2^54) returns exactly [bound]. *)
val float : t -> float -> float

(** [bool t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)
val bool : t -> float -> bool

(** [exponential t ~mean] samples an exponential distribution. Used for
    Poisson request inter-arrival times. *)
val exponential : t -> mean:float -> float

(** [geometric_size t ~mean ~min ~max] samples an object size with the
    given mean, clamped to [\[min, max\]]. The distribution is a shifted
    geometric, matching the heavy small-object skew of real Java heaps. *)
val geometric_size : t -> mean:int -> min:int -> max:int -> int

(** [pick t arr] is a uniformly random element of [arr]. Raises
    [Invalid_argument] on an empty array. *)
val pick : t -> 'a array -> 'a
