type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render ?aligns ~title ~header ~rows () =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Table.render: ragged rows")
    rows;
  let aligns =
    match aligns with
    | Some a when List.length a = ncols -> Array.of_list a
    | Some _ -> invalid_arg "Table.render: aligns arity"
    | None -> Array.init ncols (fun i -> if i = 0 then Left else Right)
  in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i cell ->
         if String.length cell > widths.(i) then widths.(i) <- String.length cell))
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
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell);
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

let fms ns = Printf.sprintf "%.1f" (Float.of_int ns /. 1e6)
let fsec ns = Printf.sprintf "%.1f" (Float.of_int ns /. 1e9)
let fratio r = Printf.sprintf "%.3f" r
let fpct p = Printf.sprintf "%.1f" p
let f1 x = Printf.sprintf "%.1f" x

let fint n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3) + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
