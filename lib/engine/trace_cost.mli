(** Parallelism-aware cost accounting for graph traces.

    Tracing parallelism is bounded by the width of the live frontier
    (Barabash & Petrank 2010, cited as [5] in the paper): a singly-linked
    list has frontier width 1 and defeats parallel tracing no matter how
    many GC threads are available. Collectors add each trace step with
    the frontier width observed at that step; [critical_ns] is the
    resulting wall-clock lower bound with [threads] workers, and [cpu_ns]
    the total CPU work. *)

type t

val create : unit -> t

(** [add t ~threads ~frontier ~cost_ns] records one step of [cost_ns] CPU
    work executed while [frontier] items were available. *)
val add : t -> threads:int -> frontier:int -> cost_ns:float -> unit

(** [add_parallel t ~threads ~cost_ns] records embarrassingly parallel
    work (frontier effectively unbounded). *)
val add_parallel : t -> threads:int -> cost_ns:float -> unit

val cpu_ns : t -> float
val critical_ns : t -> float
val reset : t -> unit
