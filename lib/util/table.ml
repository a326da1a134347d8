(* Display width in code points: the UTF-8 bytes that are not
   continuation bytes (0b10xxxxxx), so a two-byte "±" or "§" counts as
   one column. *)
let width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pad ~left w s =
  let n = width s in
  if n >= w then s
  else begin
    let fill = String.make (w - n) ' ' in
    if left then s ^ fill else fill ^ s
  end

let render ~title ~header ~rows () =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Table.render: ragged rows")
    rows;
  let widths = Array.of_list (List.map width header) in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (width cell)))
    rows;
  let buf = Buffer.create 1024 in
  let line ch =
    let total = Array.fold_left (fun acc w -> acc + w + 3) 1 widths in
    Buffer.add_string buf (String.make total ch);
    Buffer.add_char buf '\n'
  in
  let emit_row cells =
    Buffer.add_string buf "|";
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        (* The first column is left-aligned, the rest right-aligned. *)
        Buffer.add_string buf (pad ~left:(i = 0) widths.(i) cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  line '-';
  emit_row header;
  line '-';
  List.iter emit_row rows;
  line '-';
  Buffer.contents buf

let markdown ~header ~rows =
  let line cells = "| " ^ String.concat " | " cells ^ " |" in
  String.concat "\n"
    ((line header :: line (List.map (fun _ -> "---") header)
      :: List.map line rows)
    @ [ "" ])
