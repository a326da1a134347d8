(* Online controllers over the LXR knob table.

   Both controllers consume one objective sample per RC epoch — the
   epoch's collector-attributable cost (pause wall + barrier CPU +
   allocation stalls + concurrent GC CPU) normalised by the epoch's wall
   span, or a fleet SLO burn rate — and move knobs from
   Lxr_config.tunable_knobs between epochs. Every input is a simulated
   metric and all exploration randomness comes from a seeded SplitMix64
   stream, so a controlled run is bit-identical across --domains by
   construction. *)

open Repro_util
module Config = Repro_lxr.Lxr_config
module Lxr = Repro_lxr.Lxr

type algo = Hill | Pid
type objective = Cost | Burn

let algo_name = function Hill -> "hill" | Pid -> "pid"
let objective_name = function Cost -> "cost" | Burn -> "burn"

type spec = {
  algo : algo;
  objective : objective;
  seed : int;
  window : int;  (* epochs per objective measurement *)
  step : float;  (* hill-climb multiplicative step *)
  kp : float;
  ki : float;
  kd : float;
  target : float;  (* PID setpoint for the objective *)
  knobs : Config.knob list;
}

let default algo =
  { algo;
    objective = Cost;
    seed = 42;
    window = 3;
    step = 1.5;
    kp = 0.4;
    ki = 0.05;
    kd = 0.1;
    target = 0.05;
    knobs = Config.tunable_knobs }

let to_string s =
  Printf.sprintf "%s(obj=%s seed=%d window=%d)" (algo_name s.algo)
    (objective_name s.objective) s.seed s.window

let spec_keys =
  [ "obj"; "seed"; "window"; "step"; "kp"; "ki"; "kd"; "target"; "knobs" ]

let parse_knobs s =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest ->
      Result.bind (Config.find_knob n) (fun k -> resolve (k :: acc) rest)
  in
  let names = List.filter (fun n -> n <> "") (String.split_on_char '+' s) in
  match resolve [] names with
  | Ok [] -> Error "knobs= needs at least one knob name"
  | r -> r

(* Gains and setpoints: any finite number. *)
let finite ~what ~lo s = Spec.float_in ~what ~lo ~hi:Float.max_float s

let parse s =
  let ( let* ) = Result.bind in
  let head, args =
    match Spec.kv ~sep:':' (String.trim s) with
    | Some (head, args) -> (head, args)
    | None -> (String.trim s, "")
  in
  let* algo =
    Spec.choose ~what:"algorithm"
      [ ("hill", Hill); ("hill-climb", Hill); ("hillclimb", Hill); ("pid", Pid) ]
      head
  in
  Spec.fold_items
    ~f:(fun spec item ->
      match Spec.kv ~sep:'=' item with
      | None ->
        Spec.malformed ~what:"argument" ~form:"key=value"
          ~known:spec_keys item
      | Some (what, v) -> (
        match what with
        | "obj" ->
          let* objective =
            Spec.choose ~what:"objective" [ ("cost", Cost); ("burn", Burn) ] v
          in
          Ok { spec with objective }
        | "seed" ->
          let* seed = Spec.int_in ~what ~lo:min_int ~hi:max_int v in
          Ok { spec with seed }
        | "window" ->
          let* window = Spec.int_in ~what ~lo:1 ~hi:1000 v in
          Ok { spec with window }
        | "step" ->
          let* step = Spec.float_in ~what ~lo:1.0 ~hi:8.0 v in
          if step = 1.0 then Error "step: 1 is out of range; expected (1, 8]"
          else Ok { spec with step }
        | "kp" ->
          let* kp = finite ~what ~lo:(-.Float.max_float) v in
          Ok { spec with kp }
        | "ki" ->
          let* ki = finite ~what ~lo:(-.Float.max_float) v in
          Ok { spec with ki }
        | "kd" ->
          let* kd = finite ~what ~lo:(-.Float.max_float) v in
          Ok { spec with kd }
        | "target" ->
          let* target = finite ~what ~lo:0.0 v in
          Ok { spec with target }
        | "knobs" ->
          let* knobs = parse_knobs v in
          Ok { spec with knobs }
        | key -> Spec.unknown_key ~known:spec_keys key))
    (default algo) args

(* --- Controller state --------------------------------------------------- *)

type t = {
  spec : spec;
  prng : Prng.t;
  mutable w_cost : float;  (* accumulating measurement window *)
  mutable w_span : float;
  mutable w_burn : float;
  mutable w_epochs : int;
  mutable best : float;  (* best accepted objective (hill) *)
  mutable started : bool;
  mutable knob_idx : int;  (* hill: coordinate currently probed *)
  mutable up : bool;  (* hill: current direction *)
  mutable pending : (Config.knob * float) option;
      (* hill: move applied last window, with the pre-move value *)
  mutable integral : float;  (* pid *)
  mutable prev_error : float;
  mutable gain : float;  (* pid: threshold aggressiveness scalar *)
  mutable base : (Config.knob * float) list;  (* pid: values under control *)
}

let create spec =
  { spec;
    prng = Prng.create spec.seed;
    w_cost = 0.0;
    w_span = 0.0;
    w_burn = 0.0;
    w_epochs = 0;
    best = Float.infinity;
    started = false;
    knob_idx = 0;
    up = true;
    pending = None;
    integral = 0.0;
    prev_error = 0.0;
    gain = 1.0;
    base = [] }

let nudge_int (k : Config.knob) ~old ~proposed ~up =
  (* Multiplicative steps on small integer knobs can round back to the
     old value; force at least one unit of movement. *)
  match k.Config.k_kind with
  | Config.Int when Float.of_int (int_of_float proposed) = old ->
    if up then old +. 1.0 else old -. 1.0
  | _ -> proposed

let hill_move t cfg =
  let knobs = Array.of_list t.spec.knobs in
  let k = knobs.(t.knob_idx mod Array.length knobs) in
  let old = k.Config.k_get cfg in
  let factor = if t.up then t.spec.step else 1.0 /. t.spec.step in
  let proposed = nudge_int k ~old ~proposed:(old *. factor) ~up:t.up in
  let cfg' = k.Config.k_set cfg proposed in
  let applied = k.Config.k_get cfg' in
  if applied = old then begin
    (* Clamped against the wall: flip direction for the next probe of
       this knob and move on. *)
    t.up <- not t.up;
    t.knob_idx <- t.knob_idx + 1;
    t.pending <- None;
    cfg
  end
  else begin
    t.pending <- Some (k, old);
    cfg'
  end

let hill_window t ~objective cfg =
  match t.pending with
  | None ->
    if not t.started then begin
      t.started <- true;
      t.best <- objective
    end
    else t.best <- Float.min t.best objective;
    hill_move t cfg
  | Some (k, old) ->
    let cfg =
      if objective < t.best then begin
        (* Improved: keep the move and keep pushing the same knob in the
           same direction. *)
        t.best <- objective;
        cfg
      end
      else begin
        (* Regressed: revert, then move to another coordinate with a
           seeded direction for the next probe. *)
        let cfg = k.Config.k_set cfg old in
        t.up <- Prng.bool t.prng 0.5;
        t.knob_idx <- t.knob_idx + 1 + Prng.int t.prng 2;
        cfg
      end
    in
    hill_move t cfg

let pid_window t ~objective cfg =
  if not t.started then begin
    t.started <- true;
    t.base <- List.map (fun k -> (k, k.Config.k_get cfg)) t.spec.knobs
  end;
  let error = objective -. t.spec.target in
  t.integral <- Float.max (-10.0) (Float.min 10.0 (t.integral +. error));
  let derivative = error -. t.prev_error in
  t.prev_error <- error;
  let u =
    (t.spec.kp *. error) +. (t.spec.ki *. t.integral) +. (t.spec.kd *. derivative)
  in
  (* Objective above target means the collector is working too hard:
     raise the trigger thresholds (collect less eagerly); below target,
     tighten them back toward (and past) the defaults. *)
  let gain = t.gain *. Float.exp (Float.max (-0.5) (Float.min 0.5 u)) in
  let gain = Float.max 0.25 (Float.min 4.0 gain) in
  if gain <> t.gain then begin
    t.gain <- gain;
    List.fold_left
      (fun cfg (k, base) -> k.Config.k_set cfg (base *. gain))
      cfg t.base
  end
  else cfg

let observe t ~cost_ns ~span_ns ~burn cfg =
  t.w_cost <- t.w_cost +. Float.max 0.0 cost_ns;
  t.w_span <- t.w_span +. Float.max 0.0 span_ns;
  t.w_burn <- t.w_burn +. burn;
  t.w_epochs <- t.w_epochs + 1;
  if t.w_epochs < t.spec.window then cfg
  else begin
    let objective =
      match t.spec.objective with
      | Cost -> if t.w_span > 0.0 then t.w_cost /. t.w_span else 0.0
      | Burn -> t.w_burn /. Float.of_int t.w_epochs
    in
    t.w_cost <- 0.0;
    t.w_span <- 0.0;
    t.w_burn <- 0.0;
    t.w_epochs <- 0;
    match t.spec.algo with
    | Hill -> hill_window t ~objective cfg
    | Pid -> pid_window t ~objective cfg
  end

(* --- LXR glue ----------------------------------------------------------- *)

open Repro_engine

let lxr_tune ?(burn = fun () -> 0.0) ctl sim =
  let prev_now = ref Float.nan in
  let prev_gc = ref 0.0 in
  let prev_barrier = ref 0.0 in
  let prev_stall = ref 0.0 in
  fun (fb : Lxr.epoch_feedback) cfg ->
    let gc = Sim.gc_cpu sim in
    let barrier = Sim.barrier_cpu sim in
    let stall = Sim.alloc_stall_ns sim in
    let span =
      if Float.is_nan !prev_now then fb.Lxr.now_ns else fb.Lxr.now_ns -. !prev_now
    in
    (* Collector-attributable cost of the finished epoch. Deltas are
       clamped at zero: Sim.reset_measurement (end of warmup) can zero
       the accumulators mid-window. *)
    let d acc prev = Float.max 0.0 (acc -. !prev) in
    let conc_cpu = Float.max 0.0 (d gc prev_gc -. fb.Lxr.pause_cpu_ns) in
    let cost =
      fb.Lxr.pause_wall_ns +. d barrier prev_barrier +. d stall prev_stall
      +. conc_cpu
    in
    prev_now := fb.Lxr.now_ns;
    prev_gc := gc;
    prev_barrier := barrier;
    prev_stall := stall;
    observe ctl ~cost_ns:cost ~span_ns:span ~burn:(burn ()) cfg

(* Each factory instantiation gets a fresh controller with the same spec
   and seed, so instantiation order (fleet setup is replica-parallel)
   cannot leak into the results. *)
let lxr_factory ?name ?burn ?(config = Fun.id) spec :
    Collector.factory =
  let name =
    Option.value name
      ~default:(Printf.sprintf "LXR+%s" (algo_name spec.algo))
  in
  Lxr.factory_tuned ~config ~name
    ~tune:(fun sim -> lxr_tune ?burn (create spec) sim)
    ()
