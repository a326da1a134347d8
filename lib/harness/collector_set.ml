let all =
  ("lxr", Repro_lxr.Lxr.factory)
  :: ("lxr-nosatb", Repro_lxr.Lxr.factory_no_satb_concurrency)
  :: ("lxr-nold", Repro_lxr.Lxr.factory_no_lazy_decrements)
  :: ("lxr-stw", Repro_lxr.Lxr.factory_stw)
  :: ("lxr-objbar", Repro_lxr.Lxr.factory_object_barrier)
  :: ("lxr-regions", Repro_lxr.Lxr.factory_regional_evacuation)
  :: Repro_collectors.Registry.registered

let names = List.map fst all

let lxr_variants =
  List.filter
    (fun (n, _) -> not (List.mem_assoc n Repro_collectors.Registry.registered))
    all

let find name = Repro_collectors.Registry.lookup ~extra:lxr_variants name

(* --- CLI composition: --lxr-knob / --controller ------------------------- *)

module Config = Repro_lxr.Lxr_config
module Controller = Repro_policy.Controller

(* Validate every override eagerly against a probe configuration, so a
   typo or out-of-range value fails at the command line instead of
   mid-run (range checks depend only on the knob table, not on the
   probe's heap size). *)
let check_knobs specs =
  let probe =
    Config.scaled_default ~heap_bytes:(32 * 1024 * 1024) ~block_bytes:32768
  in
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun () ->
          match Config.apply_override probe spec with
          | Ok _ -> Ok ()
          | Error e -> Error ("--lxr-knob: " ^ e)))
    (Ok ()) specs

let apply_knobs specs cfg =
  List.fold_left
    (fun cfg spec ->
      match Config.apply_override cfg spec with
      | Ok c -> c
      | Error e -> invalid_arg e (* unreachable: checked at parse time *))
    cfg specs

let resolve ?controller ?burn ?(knobs = []) name =
  let ( let* ) = Result.bind in
  let* () = check_knobs knobs in
  let config = apply_knobs knobs in
  let is_lxr = String.lowercase_ascii name = "lxr" in
  match controller with
  | Some spec ->
    let* spec =
      Result.map_error (fun e -> "--controller: " ^ e) (Controller.parse spec)
    in
    if not is_lxr then
      Error
        (Printf.sprintf
           "--controller drives LXR's knob table and cannot tune %S; use -c \
            lxr"
           name)
    else Ok (Controller.lxr_factory ?burn ~config spec)
  | None ->
    if knobs = [] then find name
    else if not is_lxr then
      Error
        (Printf.sprintf
           "--lxr-knob overrides LXR's configuration and does not apply to \
            %S; use -c lxr"
           name)
    else Ok (Repro_lxr.Lxr.factory_with ~name:"LXR" ~config ())

let find_workload name =
  let candidates = Repro_mutator.Benchmarks.names in
  match
    List.find_opt
      (fun w -> w.Repro_mutator.Workload.name = String.lowercase_ascii name)
      Repro_mutator.Benchmarks.all
  with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %S%s; known: %s" name
         (Repro_util.Suggest.hint ~candidates name)
         (String.concat ", " candidates))
