(* The one grammar for command-line specs and name lookups. Every parser
   returns [result] so the front ends die with one message per mistake,
   every unknown name gets a Suggest did-you-mean hint, and every number
   goes through the readers below, which refuse NaN. *)

let items s =
  List.filter (fun x -> x <> "")
    (List.map String.trim (String.split_on_char ',' (String.trim s)))

(* Fold [f] over items, short-circuiting on the first error. *)
let fold_items ~f init s =
  List.fold_left
    (fun acc item -> match acc with Error _ -> acc | Ok st -> f st item)
    (Ok init) (items s)

(* "key<sep>value" on the first [sep]; [None] when there is none. *)
let kv ~sep item =
  match String.index_opt item sep with
  | None -> None
  | Some i ->
    Some
      ( String.lowercase_ascii (String.sub item 0 i),
        String.sub item (i + 1) (String.length item - i - 1) )

(* A did-you-mean hint over [known]; none for a name that is known
   already (it is misplaced, not misspelled). *)
let hint ~known name =
  let lname = String.lowercase_ascii name in
  if List.exists (fun k -> String.lowercase_ascii k = lname) known then ""
  else Suggest.hint ~candidates:known name

let unknown noun ~known name =
  Printf.sprintf "unknown %s %S%s; known: %s" noun name (hint ~known name)
    (String.concat ", " known)

let choose ~what table name =
  let lname = String.lowercase_ascii name in
  match List.find_opt (fun (k, _) -> String.lowercase_ascii k = lname) table with
  | Some (_, v) -> Ok v
  | None -> Error (unknown what ~known:(List.map fst table) name)

let unknown_key ~what ~known key = Error (what ^ ": " ^ unknown "key" ~known key)

let malformed ~what ~form ~known item =
  Error (Printf.sprintf "%s %S: expected %s%s" what item form (hint ~known item))

let bool ~what s =
  match String.lowercase_ascii (String.trim s) with
  | "true" | "1" | "on" | "yes" -> Ok true
  | "false" | "0" | "off" | "no" -> Ok false
  | _ ->
    Error
      (Printf.sprintf "%s: bad bool %S (expected true/false, on/off, yes/no or 1/0)"
         what s)

(* A float that is not NaN, and not an infinity on a side where a finite
   bound applies. *)
let number ~lo ~hi s =
  match float_of_string_opt (String.trim s) with
  | Some v
    when not
           (Float.is_nan v
           || (v = Float.infinity && Float.is_finite hi)
           || (v = Float.neg_infinity && Float.is_finite lo)) ->
    Some v
  | Some _ | None -> None

let float_in ~what ~lo ~hi s =
  match number ~lo ~hi s with
  | Some v when v >= lo && v <= hi -> Ok v
  | Some v ->
    Error (Printf.sprintf "%s: %g is out of range; expected [%g, %g]" what v lo hi)
  | None -> Error (Printf.sprintf "%s: bad number %S" what s)

let float_min ~what ~lo s =
  match number ~lo ~hi:Float.infinity s with
  | Some v when v >= lo -> Ok v
  | Some v -> Error (Printf.sprintf "%s: %g is out of range; expected >= %g" what v lo)
  | None -> Error (Printf.sprintf "%s: bad number %S" what s)

let int_in ~what ~lo ~hi s =
  match int_of_string_opt (String.trim s) with
  | Some v when v >= lo && v <= hi -> Ok v
  | Some v ->
    Error (Printf.sprintf "%s: %d is out of range; expected [%d, %d]" what v lo hi)
  | None -> Error (Printf.sprintf "%s: bad integer %S" what s)

(* A duration in simulated time: a float with an optional ns/us/ms/s
   suffix (default ns), e.g. "250us", "2ms", "1.5e6". *)
let duration ~what s =
  let s = String.trim s in
  let split suffix scale =
    let n = String.length s and m = String.length suffix in
    if n > m && String.sub s (n - m) m = suffix then
      Some (String.sub s 0 (n - m), scale)
    else None
  in
  let body, scale =
    (* "ns" before "s", "us"/"ms" before "s". *)
    match split "ns" 1.0 with
    | Some r -> r
    | None -> (
      match split "us" 1e3 with
      | Some r -> r
      | None -> (
        match split "ms" 1e6 with
        | Some r -> r
        | None -> (
          match split "s" 1e9 with Some r -> r | None -> (s, 1.0))))
  in
  match number ~lo:0.0 ~hi:Float.infinity body with
  | Some v when v >= 0.0 -> Ok (v *. scale)
  | Some _ -> Error (Printf.sprintf "%s: duration %S must be >= 0" what s)
  | None ->
    Error
      (Printf.sprintf "%s: bad duration %S (expected e.g. 250us, 2ms, 1.5e6)"
         what s)
