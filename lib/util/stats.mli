(** Summary statistics used throughout the evaluation harness.

    These mirror the paper's methodology (§4): geometric means over
    benchmarks, percentile tail latencies, and 95% confidence intervals
    expressed as a fraction of the reported value. *)

(** [mean xs] is the arithmetic mean. Raises [Invalid_argument] on an
    empty list. *)
val mean : float list -> float

(** [geomean xs] is the geometric mean of strictly positive values. Values
    [<= 0.] raise [Invalid_argument]. *)
val geomean : float list -> float

(** [stddev xs] is the sample standard deviation (n-1 denominator); [0.]
    for fewer than two samples. *)
val stddev : float list -> float

(** [percentile xs p] is the [p]-th percentile ([0. <= p <= 100.]) using
    linear interpolation between closest ranks. Raises [Invalid_argument]
    on an empty list or out-of-range [p]. *)
val percentile : float list -> float -> float

(** [confidence95 xs] is the half-width of the 95% confidence interval of
    the mean (1.96 standard errors); [0.] for fewer than two samples. *)
val confidence95 : float list -> float

(** [confidence95_fraction xs] is [confidence95 xs /. mean xs], matching
    the paper's "±0.500 means the interval extends 50% over the reported
    result" convention. [0.] when the mean is zero. *)
val confidence95_fraction : float list -> float

(** [min_max xs] returns the minimum and maximum. Raises
    [Invalid_argument] on an empty list. *)
val min_max : float list -> float * float

(** [normalize ~base xs] divides each element of [xs] by [base], the
    "relative to G1" convention of Tables 5 and 6. *)
val normalize : base:float -> float list -> float list
