(** Multi-series ASCII line charts for the benchmark harness's figures.

    Renders each series with its own glyph on a shared grid with labelled
    axes and a legend — enough to eyeball the latency response curves
    (Figure 5) and the LBO overhead curves (Figure 7) in a terminal. *)

(** [render ~title ~x_label ~y_label ~series ()] plots each series' (x, y)
    points on a 64x16-character grid. [log_y] plots log10 of the y
    values (latency tails). Series beyond the glyph alphabet reuse
    glyphs. Raises [Invalid_argument] if no series has a point or a
    [log_y] value is non-positive. *)
val render :
  ?log_y:bool ->
  title:string ->
  x_label:string ->
  y_label:string ->
  series:(string * (float * float) list) list ->
  unit ->
  string
