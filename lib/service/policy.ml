module Spec = Repro_util.Spec

type t = Round_robin | Least_outstanding | Gc_aware

let all =
  [ ("round-robin", Round_robin);
    ("least-outstanding", Least_outstanding);
    ("gc-aware", Gc_aware) ]

let to_string p = fst (List.find (fun (_, q) -> q = p) all)
let names = List.map fst all

let of_string name = Spec.choose ~what:"policy" all name

(* --- Front-end client policy: timeouts, retries, hedging --------------- *)

module Retry = struct
  type t = {
    timeout_ns : float option;
    max_attempts : int;
    backoff_ns : float;
    hedge_ns : float option;
  }

  let none =
    { timeout_ns = None; max_attempts = 1; backoff_ns = 0.0; hedge_ns = None }

  let keys = [ "timeout"; "max"; "backoff"; "hedge" ]

  let of_spec s =
    let ( let* ) = Result.bind in
    let* r =
      Spec.fold_items
        ~f:(fun r item ->
          match Spec.kv ~sep:':' item with
          | Some ("timeout", v) ->
            let* d = Spec.duration ~what:"retry: timeout" v in
            if d <= 0.0 then Error "retry: timeout must be > 0"
            else Ok { r with timeout_ns = Some d }
          | Some ("max", v) ->
            let* n = Spec.int_in ~what:"retry: max" ~lo:1 ~hi:16 v in
            Ok { r with max_attempts = n }
          | Some ("backoff", v) ->
            let* d = Spec.duration ~what:"retry: backoff" v in
            Ok { r with backoff_ns = d }
          | Some ("hedge", v) ->
            let* d = Spec.duration ~what:"retry: hedge" v in
            if d <= 0.0 then Error "retry: hedge must be > 0"
            else Ok { r with hedge_ns = Some d }
          | Some (key, _) -> Spec.unknown_key ~what:"retry" ~known:keys key
          | None ->
            Spec.malformed ~what:"retry item" ~form:"key:value" ~known:keys item)
        none s
    in
    match r.timeout_ns with
    | None when r.max_attempts > 1 ->
      (* Retries without a deadline would resubmit forever-latent
         requests; insist the client bounds its patience. *)
      Error "retry: max > 1 needs a timeout (e.g. timeout:5ms,max:3)"
    | _ -> Ok r

  (* [backoff_ns * 2^(attempt-1)]: attempt 1 is the original dispatch. *)
  let delay t ~attempt =
    t.backoff_ns *. Float.of_int (1 lsl max 0 (min 16 (attempt - 1)))
end
