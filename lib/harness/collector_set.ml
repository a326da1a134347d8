module C = Repro_collectors

(* The eight costed collectors besides LXR, in the order the evaluation
   matrices list them. *)
let non_lxr =
  [ ("serial", C.Mark_sweep.serial);
    ("parallel", C.Mark_sweep.parallel);
    ("immix", C.Mark_sweep.immix);
    ("semispace", C.Semispace.factory);
    ("g1", C.G1.factory);
    ("shenandoah", C.Conc_mark_evac.shenandoah);
    ("zgc", C.Conc_mark_evac.zgc);
    ("journal_rc", C.Journal_rc.factory) ]

let ideal = "ideal"

let all =
  [ ("lxr", Repro_lxr.Lxr.factory);
    ("lxr-nosatb", Repro_lxr.Lxr.factory_no_satb_concurrency);
    ("lxr-nold", Repro_lxr.Lxr.factory_no_lazy_decrements);
    ("lxr-stw", Repro_lxr.Lxr.factory_stw);
    ("lxr-objbar", Repro_lxr.Lxr.factory_object_barrier);
    ("lxr-regions", Repro_lxr.Lxr.factory_regional_evacuation) ]
  @ non_lxr
  @ [ (ideal, C.Ideal.factory) ]

let names = List.map fst all

let lockstep_ok name = String.lowercase_ascii name <> ideal

let find name = Repro_util.Spec.choose ~what:"collector" all name

(* --- CLI composition: --lxr-knob / --controller ------------------------- *)

module Config = Repro_lxr.Lxr_config
module Controller = Repro_policy.Controller

let resolve ?controller ?burn ?(knobs = []) name =
  let ( let* ) = Result.bind in
  (* Parse every override up front, so a typo or out-of-range value
     fails at the command line instead of mid-run. *)
  let* overrides =
    List.fold_left
      (fun acc spec ->
        let* kvs = acc in
        match Config.parse_override spec with
        | Ok kv -> Ok (kv :: kvs)
        | Error e -> Error ("--lxr-knob: " ^ e))
      (Ok []) knobs
  in
  (* [overrides] is newest first: apply the oldest first. *)
  let config cfg =
    List.fold_right (fun (k, v) cfg -> k.Config.k_set cfg v) overrides cfg
  in
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
  Repro_util.Spec.choose ~what:"benchmark"
    (List.map
       (fun w -> (w.Repro_mutator.Workload.name, w))
       Repro_mutator.Benchmarks.all)
    name
