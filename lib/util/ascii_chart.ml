let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

(* The plotting grid, in characters. *)
let width = 64
let height = 16

let render ?(log_y = false) ~title ~x_label ~y_label ~series () =
  let points =
    List.concat_map
      (fun (_, pts) ->
        List.map
          (fun (x, y) ->
            if log_y && y <= 0.0 then
              invalid_arg "Ascii_chart.render: non-positive value under log_y";
            (x, if log_y then log10 y else y))
          pts)
      series
  in
  if points = [] then invalid_arg "Ascii_chart.render: no data";
  let xs = List.map fst points and ys = List.map snd points in
  let fmin l = List.fold_left Float.min (List.hd l) l in
  let fmax l = List.fold_left Float.max (List.hd l) l in
  let x0 = fmin xs and x1 = fmax xs in
  let y0 = fmin ys and y1 = fmax ys in
  let xspan = if x1 > x0 then x1 -. x0 else 1.0 in
  let yspan = if y1 > y0 then y1 -. y0 else 1.0 in
  let grid = Array.make_matrix height width ' ' in
  let plot gi (x, y) =
    let y = if log_y then log10 y else y in
    let col =
      int_of_float ((x -. x0) /. xspan *. Float.of_int (width - 1) +. 0.5)
    in
    let row =
      height - 1
      - int_of_float ((y -. y0) /. yspan *. Float.of_int (height - 1) +. 0.5)
    in
    let col = max 0 (min (width - 1) col) and row = max 0 (min (height - 1) row) in
    grid.(row).(col) <- glyphs.(gi mod Array.length glyphs)
  in
  List.iteri (fun gi (_, pts) -> List.iter (plot gi) pts) series;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let unscale v = if log_y then Float.pow 10.0 v else v in
  let y_tick row =
    let frac = Float.of_int (height - 1 - row) /. Float.of_int (height - 1) in
    unscale (y0 +. (frac *. yspan))
  in
  for row = 0 to height - 1 do
    let label =
      if row = 0 || row = height - 1 || row = height / 2 then
        Printf.sprintf "%10.3g |" (y_tick row)
      else Printf.sprintf "%10s |" ""
    in
    Buffer.add_string buf label;
    Buffer.add_string buf (String.init width (fun c -> grid.(row).(c)));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
  Buffer.add_string buf
    (Printf.sprintf "%10s  %-8.3g%s%8.3g\n" "" x0
       (String.make (max 1 (width - 16)) ' ')
       x1);
  Buffer.add_string buf (Printf.sprintf "%12s%s" "" x_label);
  Buffer.add_string buf
    (Printf.sprintf "   (y: %s%s)\n" y_label (if log_y then ", log scale" else ""));
  Buffer.add_string buf "  legend: ";
  List.iteri
    (fun gi (name, _) ->
      Buffer.add_string buf
        (Printf.sprintf "%c=%s  " glyphs.(gi mod Array.length glyphs) name))
    series;
  Buffer.add_char buf '\n';
  Buffer.contents buf
