(** Table rendering for the experiment and report generators.

    Each reproduced paper table prints in a fixed monospace layout so
    that paper-vs-measured comparisons are readable in a terminal log. *)

type align = Left | Right

(** [render ~title ~header ~rows ()] lays the table out with columns sized
    to content. All rows must have the same arity as [header]; raises
    [Invalid_argument] otherwise. The first column is left-aligned and the
    rest right-aligned unless [aligns] overrides this. *)
val render :
  ?aligns:align list -> title:string -> header:string list -> rows:string list list -> unit -> string

(** [markdown ~header ~rows] is the same table as GitHub-flavoured
    markdown, one line per row, with a trailing newline. *)
val markdown : header:string list -> rows:string list list -> string

(** Formatting helpers used when building rows. *)

(** [fms ns] renders nanoseconds as milliseconds with one decimal,
    e.g. [fms 4_600_000 = "4.6"]. *)
val fms : int -> string

(** [fsec ns] renders nanoseconds as seconds with one decimal. *)
val fsec : int -> string

(** [fratio r] renders a ratio with three decimals, e.g. ["0.958"]. *)
val fratio : float -> string

(** [fpct p] renders a percentage with one decimal. *)
val fpct : float -> string

(** [f1 x] renders a float with one decimal. *)
val f1 : float -> string

(** [fint n] renders an integer with thousands separators. *)
val fint : int -> string
