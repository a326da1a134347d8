(** Parallelism-aware cost accounting for graph traces: the meter of one
    stop-the-world pause.

    Tracing parallelism is bounded by the width of the live frontier
    (Barabash & Petrank 2010, cited as [5] in the paper): a singly-linked
    list has frontier width 1 and defeats parallel tracing no matter how
    many GC threads are available. A meter is made for one pause, with
    the cost model and the pause's GC thread count, and collectors add
    each trace step with the frontier width observed at that step;
    [critical_ns] is the resulting wall-clock lower bound with that many
    workers, and [cpu_ns] the total CPU work. {!Gc_kernels.stw} makes
    the meter of every pause. *)

type t

(** [create cost ~gc_threads] is an empty meter for a pause that
    [gc_threads] GC threads run under [cost]. *)
val create : Cost_model.t -> gc_threads:int -> t

(** [cost t] is the cost model [t] was made with. *)
val cost : t -> Cost_model.t

(** [add t ~frontier ~cost_ns] records one step of [cost_ns] CPU work
    executed while [frontier] items were available. *)
val add : t -> frontier:int -> cost_ns:float -> unit

(** [add_parallel t ~cost_ns] records embarrassingly parallel work
    (frontier effectively unbounded). *)
val add_parallel : t -> cost_ns:float -> unit

val cpu_ns : t -> float
val critical_ns : t -> float
