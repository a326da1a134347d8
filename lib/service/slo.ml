(* SLO-burn monitoring, brown-out load shedding, and autoscaling for the
   fleet front-end.

   The objective is the classic availability shape: "P% of requests
   complete within B ns". The monitor keeps a sliding window of the last
   W scheduling rounds; each round contributes (violations, total), and
   the burn rate is the window's observed violation fraction over the
   allowed fraction (1 - P/100). Burn 1.0 means the fleet is exactly
   spending its error budget; burn 10 means ten times too fast.

   All decisions happen at scheduling barriers on the single-threaded
   front-end, from checkpoint-frozen state only, so degradation and
   scaling actions are bit-identical across domain counts. *)

module Spec = Repro_util.Spec

type spec = {
  percentile : float;  (* e.g. 99.9 *)
  budget_ns : float;
  window_rounds : int;
  burn_high : float;  (* enter brown-out at/above this burn *)
  burn_low : float;  (* leave brown-out at/below this burn *)
  shed_fraction : float;  (* arrivals shed while browned out *)
}

let default_spec =
  { percentile = 99.9;
    budget_ns = 0.0;  (* required in a spec *)
    window_rounds = 64;
    burn_high = 4.0;
    burn_low = 1.0;
    shed_fraction = 0.5 }

let suggest_keys = [ "p99.9"; "p99"; "window"; "burn-high"; "burn-low"; "shed" ]

let of_spec s =
  let ( let* ) = Result.bind in
  let* parsed =
    Spec.fold_items
      ~f:(fun (spec, seen_p) item ->
        match Spec.kv ~sep:':' item with
        | Some (key, v) when String.length key > 1 && key.[0] = 'p' ->
          (* "pNN:BUDGET"; no other key starts with a p. *)
          let* p =
            Spec.float_in ~what:"percentile" ~lo:50.0 ~hi:99.99
              (String.sub key 1 (String.length key - 1))
          in
          if seen_p then Error "more than one percentile objective"
          else
            let* b = Spec.duration ~what:"budget" v in
            if b <= 0.0 then Error "budget must be > 0"
            else Ok ({ spec with percentile = p; budget_ns = b }, true)
        | Some ("window", v) ->
          let* w = Spec.int_in ~what:"window" ~lo:1 ~hi:100_000 v in
          Ok ({ spec with window_rounds = w }, seen_p)
        | Some ("burn-high", v) ->
          let* x = Spec.float_min ~what:"burn-high" ~lo:0.0 v in
          Ok ({ spec with burn_high = x }, seen_p)
        | Some ("burn-low", v) ->
          let* x = Spec.float_min ~what:"burn-low" ~lo:0.0 v in
          Ok ({ spec with burn_low = x }, seen_p)
        | Some ("shed", v) ->
          let* f = Spec.float_in ~what:"shed" ~lo:0.0 ~hi:1.0 v in
          Ok ({ spec with shed_fraction = f }, seen_p)
        | Some (key, _) -> Spec.unknown_key ~known:suggest_keys key
        | None ->
          Spec.malformed ~what:"item" ~form:"key:value" ~known:suggest_keys
            item)
      (default_spec, false) s
  in
  match parsed with
  | spec, true when spec.burn_low > spec.burn_high ->
    Error "burn-low must be <= burn-high"
  | spec, true -> Ok spec
  | _, false -> Error "needs a percentile objective (e.g. p99.9:2ms)"

(* --- The burn monitor ---------------------------------------------------- *)

type sample = { time : float; burn : float; shedding : bool }

type t = {
  spec : spec;
  ring_viol : int array;  (* per-round violations, ring over the window *)
  ring_total : int array;
  mutable cursor : int;
  mutable round_viol : int;
  mutable round_total : int;
  mutable win_viol : int;  (* running window sums *)
  mutable win_total : int;
  mutable shedding : bool;
  mutable shed_rounds : int;
  mutable burn : float;
  mutable peak_burn : float;
  mutable breach_rounds : int;  (* rounds with burn > 1 *)
  mutable timeline : sample list;  (* newest first *)
}

let create spec =
  { spec;
    ring_viol = Array.make spec.window_rounds 0;
    ring_total = Array.make spec.window_rounds 0;
    cursor = 0;
    round_viol = 0;
    round_total = 0;
    win_viol = 0;
    win_total = 0;
    shedding = false;
    shed_rounds = 0;
    burn = 0.0;
    peak_burn = 0.0;
    breach_rounds = 0;
    timeline = [] }

(* Observes nothing and never burns, sheds or records: the monitor of a
   fleet without an SLO. *)
let none = create default_spec

let violates t ~latency_ns = latency_ns > t.spec.budget_ns

let[@inline] observe t ~latency_ns =
  if t != none then begin
    t.round_total <- t.round_total + 1;
    if violates t ~latency_ns then t.round_viol <- t.round_viol + 1
  end

(* Close the round at a barrier: rotate the ring, recompute burn, run
   the shed hysteresis, and append to the timeline. *)
let tick t ~now =
  if t != none then begin
    let w = t.spec.window_rounds in
    t.win_viol <- t.win_viol - t.ring_viol.(t.cursor) + t.round_viol;
    t.win_total <- t.win_total - t.ring_total.(t.cursor) + t.round_total;
    t.ring_viol.(t.cursor) <- t.round_viol;
    t.ring_total.(t.cursor) <- t.round_total;
    t.cursor <- (t.cursor + 1) mod w;
    t.round_viol <- 0;
    t.round_total <- 0;
    let allowed = (100.0 -. t.spec.percentile) /. 100.0 in
    t.burn <-
      (if t.win_total = 0 then 0.0
       else
         Float.of_int t.win_viol
         /. Float.of_int t.win_total
         /. Float.max 1e-9 allowed);
    if t.burn > t.peak_burn then t.peak_burn <- t.burn;
    if t.burn > 1.0 then t.breach_rounds <- t.breach_rounds + 1;
    (if t.shedding then begin
       if t.burn <= t.spec.burn_low then t.shedding <- false
     end
     else if t.burn >= t.spec.burn_high then t.shedding <- true);
    if t.shedding then t.shed_rounds <- t.shed_rounds + 1;
    t.timeline <- { time = now; burn = t.burn; shedding = t.shedding } :: t.timeline
  end

let burn t = t.burn
let shedding t = if t.shedding then t.spec.shed_fraction else 0.0
let peak_burn t = t.peak_burn
let breach_rounds t = t.breach_rounds
let shed_rounds t = t.shed_rounds
let timeline t = List.rev t.timeline

(* --- Autoscaler ----------------------------------------------------------- *)

module Autoscale = struct
  type spec = {
    min_replicas : int;
    max_replicas : int;
    up_burn : float;  (* scale up when burn >= this for [patience] ticks *)
    down_burn : float;  (* scale down when burn <= this for [patience] *)
    patience : int;
    cooldown : int;  (* rounds to hold after any action *)
  }

  let keys = [ "min"; "max"; "up"; "down"; "patience"; "cooldown" ]

  let of_spec s =
    let ( let* ) = Result.bind in
    let* parsed =
      Spec.fold_items
        ~f:(fun (spec, seen_max) item ->
          match Spec.kv ~sep:':' item with
          | Some ("min", v) ->
            let* n = Spec.int_in ~what:"min" ~lo:1 ~hi:1024 v in
            Ok ({ spec with min_replicas = n }, seen_max)
          | Some ("max", v) ->
            let* n = Spec.int_in ~what:"max" ~lo:1 ~hi:1024 v in
            Ok ({ spec with max_replicas = n }, true)
          | Some ("up", v) ->
            let* x = Spec.float_min ~what:"up" ~lo:0.0 v in
            Ok ({ spec with up_burn = x }, seen_max)
          | Some ("down", v) ->
            let* x = Spec.float_min ~what:"down" ~lo:0.0 v in
            Ok ({ spec with down_burn = x }, seen_max)
          | Some ("patience", v) ->
            let* n = Spec.int_in ~what:"patience" ~lo:1 ~hi:100_000 v in
            Ok ({ spec with patience = n }, seen_max)
          | Some ("cooldown", v) ->
            let* n = Spec.int_in ~what:"cooldown" ~lo:0 ~hi:100_000 v in
            Ok ({ spec with cooldown = n }, seen_max)
          | Some (key, _) -> Spec.unknown_key ~known:keys key
          | None ->
            Spec.malformed ~what:"item" ~form:"key:value" ~known:keys
              item)
        ( { min_replicas = 1; max_replicas = 0; up_burn = 4.0; down_burn = 0.25;
            patience = 8; cooldown = 64 },
          false )
        s
    in
    match parsed with
    | _, false -> Error "needs max:N"
    | spec, true when spec.min_replicas > spec.max_replicas ->
      Error "min must be <= max"
    | spec, true when spec.down_burn > spec.up_burn ->
      Error "down must be <= up"
    | spec, true -> Ok spec

  type t = {
    spec : spec;
    mutable up_streak : int;
    mutable down_streak : int;
    mutable hold : int;  (* cooldown rounds remaining *)
  }

  let create spec = { spec; up_streak = 0; down_streak = 0; hold = 0 }

  let tick t ~burn ~active =
    if burn >= t.spec.up_burn then begin
      t.up_streak <- t.up_streak + 1;
      t.down_streak <- 0
    end
    else if burn <= t.spec.down_burn then begin
      t.down_streak <- t.down_streak + 1;
      t.up_streak <- 0
    end
    else begin
      t.up_streak <- 0;
      t.down_streak <- 0
    end;
    if t.hold > 0 then begin
      t.hold <- t.hold - 1;
      `Hold
    end
    else if t.up_streak >= t.spec.patience && active < t.spec.max_replicas
    then begin
      t.up_streak <- 0;
      t.hold <- t.spec.cooldown;
      `Up
    end
    else if t.down_streak >= t.spec.patience && active > t.spec.min_replicas
    then begin
      t.down_streak <- 0;
      t.hold <- t.spec.cooldown;
      `Down
    end
    else `Hold
end
