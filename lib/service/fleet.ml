open Repro_util
open Repro_engine
module Mut = Repro_mutator.Mut_engine
module Workload = Repro_mutator.Workload
module Verifier = Repro_verify.Verifier

type config = {
  workload : Workload.t;
  factory : Collector.factory;
  replicas : int;
  heap_factor : float;
  policy : Policy.t;
  seed : int;
  requests : int;
  load : float;
  queue_limit : int;
  quantum_ns : float option;
  domains : int;
  verify : Verifier.safepoint list;
  chaos : Chaos.spec option;
  retry : Policy.Retry.t;
  slo : Slo.spec option;
  autoscale : Slo.Autoscale.spec option;
  on_burn : (float -> unit) option;
}

let config ?(replicas = 4) ?(heap_factor = 1.3) ?(policy = Policy.Gc_aware)
    ?(seed = 42) ?requests ?(load = 1.0) ?(queue_limit = 64) ?quantum_ns
    ?(domains = 1) ?gc_threads:_ ?(verify = []) ?chaos
    ?(retry = Policy.Retry.none) ?slo ?autoscale ?on_burn ~workload ~factory
    () =
  let requests =
    match requests with
    | Some n -> n
    | None -> (
      match workload.Workload.request with Some r -> r.count | None -> 0)
  in
  { workload; factory; replicas; heap_factor; policy; seed; requests; load;
    queue_limit; quantum_ns; domains; verify; chaos; retry; slo; autoscale;
    on_burn }

type replica_stats = {
  r_index : int;
  r_served : int;
  r_dropped : int;
  r_latency : Histogram.t;
  r_queueing : Histogram.t;
  r_busy_ns : float;
  r_wall_ns : float;
  r_utilization : float;
  r_pause_count : int;
  r_pauses : Histogram.t;
  r_gc_cpu_ns : float;
  r_mutator_cpu_ns : float;
  r_oom : string option;
  r_state : string;
  r_restarts : int;
  r_time_in : (string * float) list;
  r_ladder : (string * float) list;
  r_wb_fast : float option;
  r_wb_slow : float option;
}

type result = {
  workload : string;
  collector : string;
  policy : Policy.t;
  replicas : int;
  domains : int;
  heap_factor : float;
  ok : bool;
  error : string option;
  requests : int;
  completed : int;
  rejected : int;
  dropped : int;
  shed : int;
  timeouts : int;
  retries : int;
  hedges : int;
  hedge_wins : int;
  wall_ns : float;
  latency : Histogram.t;
  queueing : Histogram.t;
  diversions : int;
  availability : float;
  chaos_events : int;
  scale_ups : int;
  scale_downs : int;
  slo_peak_burn : float;
  slo_breach_rounds : int;
  slo_shed_rounds : int;
  slo_timeline : Slo.sample list;
  ladder : (string * float) list;
  wb_fast : float;
  wb_slow : float;
  verifier_checks : int;
  violations : int;
  per_replica : replica_stats list;
}

let qps_opt r =
  if (not r.ok) || r.completed = 0 || r.wall_ns <= 0.0 then None
  else Some (Float.of_int r.completed /. (r.wall_ns /. 1e9))

let failed (cfg : config) ~collector msg =
  { workload = cfg.workload.Workload.name;
    collector;
    policy = cfg.policy;
    replicas = cfg.replicas;
    domains = cfg.domains;
    heap_factor = cfg.heap_factor;
    ok = false;
    error = Some msg;
    requests = cfg.requests;
    completed = 0;
    rejected = 0;
    dropped = 0;
    shed = 0;
    timeouts = 0;
    retries = 0;
    hedges = 0;
    hedge_wins = 0;
    wall_ns = 0.0;
    latency = Histogram.create ();
    queueing = Histogram.create ();
    diversions = 0;
    availability = 0.0;
    chaos_events = 0;
    scale_ups = 0;
    scale_downs = 0;
    slo_peak_burn = 0.0;
    slo_breach_rounds = 0;
    slo_shed_rounds = 0;
    slo_timeline = [];
    ladder = [];
    wb_fast = 0.0;
    wb_slow = 0.0;
    verifier_checks = 0;
    violations = 0;
    per_replica = [] }

(* A live engine: what a running replica process owns. Replaced
   wholesale on restart -- the old process's heap is gone. *)
type engine = {
  api : Api.t;
  server : Mut.server;
  verifier : Verifier.t option;
}

(* An order to rebuild a replica process, executed by the replica's
   worker during the next round. *)
type restart_order = {
  ro_heap_bytes : int;
  ro_seed : int;
  ro_begun : float;  (* fleet time the relaunch started *)
}

(* A replica's request copies for one window, in feed order, as
   parallel arrays that grow only past their high-water mark. The
   front-end appends each copy at dispatch; during the round the
   replica's worker writes every copy's outcome ([lose] writes it for a
   crash before the round); [settle] folds the outcomes at the barrier
   and empties the queue. A copy fed in a window always resolves by that
   window's barrier, so none stays queued across one. *)
type copy_queue = {
  mutable code : int array;  (* request id lsl 1, lor 1 for a hedge copy *)
  mutable sent : float array;  (* dispatch time: the copy's arrival *)
  mutable wait : float array;  (* from dispatch to service start *)
  mutable finish : float array;  (* fleet completion time; nan if lost *)
  mutable len : int;
}

(* A replica's floats, in an all-float record: OCaml stores its fields
   flat, as it does [Sim.hot]'s, so the stores made for every copy and
   at every barrier box nothing. *)
type clock = {
  mutable offset : float;  (* fleet time = offset + replica-local clock *)
  mutable busy_ns : float;
  mutable avail : float;  (* fleet-time clock at the last barrier *)
  mutable est_service : float;  (* EWMA of observed wall service time *)
  mutable barrier_busy : float;  (* busy_ns snapshot at the last barrier *)
  mutable restart_at : float;  (* fleet time a Down replica may relaunch;
                                  nan = stays down *)
}

(* One replica slot: engine, lifecycle, and the front-end's frozen view.
   [queue]'s copies, [pending_restart] and [stall] are written by the
   front-end between rounds and read by exactly one worker during a
   round; [eng], the copies' outcomes, [round_copies], [clock]'s [offset]
   and [busy_ns], [dropped], [oom] and [restart_error] are written by that
   worker (and, for a crash, by the front-end before the round) and
   re-read by the front-end only after the round barrier, so there are
   no data races. *)
type replica = {
  idx : int;
  lc : Lifecycle.t;
  mutable eng : engine option;
  clock : clock;
  mutable heap_bytes : int;  (* current process heap (shrinks shrink it) *)
  latency : Histogram.t;
  queueing : Histogram.t;
  queue : copy_queue;
  mutable dropped : int;  (* copies lost here: crash, OOM, dead process *)
  mutable round_copies : int;  (* copies served this round, hedges included *)
  mutable pending_restart : restart_order option;
  mutable restart_error : string option;
  mutable dead_forever : bool;  (* a relaunch failed to build: no revival *)
  mutable stall : (float * float * float) option;  (* start, end, factor *)
  (* Checkpoint-frozen scheduling state, with [clock]'s [avail],
     [est_service] and [barrier_busy]; [queue]'s length counts the
     copies handed out since the last barrier. *)
  signal : Api.gc_signal;
      (* refreshed in place at every barrier while the replica holds an
         engine; routing reads it only then *)
  mutable oom : string option;  (* last death reason; None while healthy *)
  mutable activated : bool;  (* ever held an engine (spares start false) *)
  (* Accumulators across engine generations (restarts). *)
  mutable acc_ladder : (string * float) list;  (* [] until the first retire *)
  acc_pauses : Histogram.t;
  mutable acc_pause_count : int;
  mutable acc_gc_cpu : float;
  mutable acc_mut_cpu : float;
  mutable acc_checks : int;
  mutable acc_violations : int;
  mutable acc_wb_fast : float option;  (* None until a retire reports it *)
  mutable acc_wb_slow : float option;
}

(* What every stage reads and none changes: the config and the constants
   derived from it before the first window. The replica round sees only
   this and its own replica, which is why its output cannot depend on
   how replicas are spread over domains. *)
type env = {
  cfg : config;
  pool : Repro_par.Par.Pool.t;
  heap_bytes : int;  (* each initial replica's heap *)
  service_wall : float;  (* a GC-idle replica's wall service time *)
  quantum : float;
  resilient : bool;
  auto_restart : bool;
  restart_delay : float;
  ramp_rounds : int;
}

(* The front-end's state, read and written only by the single-threaded
   stages between replica rounds. A request is its id, which follows
   arrival order; its state sits in flat arrays indexed by that id, laid
   out once in [start], so dispatching, routing and settling a request
   allocate nothing. A request is dispatched as one or (when hedged) two
   copies; dispatch and service share a scheduling window, so every copy
   of one request resolves at the same barrier and the front-end settles
   each request exactly once. *)
type front = {
  env : env;
  collector : string;
  replicas : replica array;
  arrival : float array;  (* first fleet arrival: the latency baseline *)
  sent : float array;
      (* the current dispatch's time: the arrival until the first one,
         then each queued retry's due time *)
  attempts : int array;  (* dispatches so far, hedge copies excluded *)
  settled : bool array;  (* reached a terminal bucket *)
  best : int array;  (* [settle]'s scratch, [unresolved] outside it *)
  t0 : float;  (* the fleet epoch *)
  schedule : Chaos.t;
  slo : Slo.t;  (* [Slo.none] without an SLO *)
  scaler : Slo.Autoscale.t option;
  shed_prng : Prng.t;
  mutable next : int;  (* first request not yet dispatched *)
  retry_q : Vec.t;  (* requests awaiting a retry at [sent], unordered *)
  due : Vec.t;  (* [dispatch_window]'s scratch: the window's due retries *)
  mutable rr : int;  (* round-robin cursor *)
  busy : int array;  (* this window's replicas with work, [window]'s scratch *)
  serve_busy : int -> unit;  (* the round's packet body over [busy] *)
  (* Terminal buckets (each request lands in exactly one) ... *)
  mutable completed : int;
  mutable rejected : int;
  mutable dropped : int;
  mutable shed : int;
  (* ... and event counters. *)
  mutable timeouts : int;
  mutable retries : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable diversions : int;
  mutable chaos_events : int;
  mutable scale_ups : int;
  mutable scale_downs : int;
}

(* Element-wise sum of two ladder counter lists in [Api.ladder_alist]
   order; [] is zero. *)
let sum_ladders a b =
  match (a, b) with
  | [], l | l, [] -> l
  | _ -> List.map2 (fun (k, x) (_, y) -> (k, x +. y)) a b

(* [settle]'s per-request scratch [best.(id)] is [unresolved] outside
   [settle]; inside it, [no_completion] once a copy of the request has
   resolved without completing, else the earliest completion's copy,
   named [position * replica slots + replica]. *)
let unresolved = -2
let no_completion = -1

(* --- Validation and setup ------------------------------------------------ *)

(* Why a config with a request model cannot run, if it cannot. *)
let rejection (cfg : config) =
  if cfg.replicas < 1 then Some "needs >= 1 replica"
  else if match cfg.quantum_ns with Some q -> not (q > 0.0) | None -> false
  then (* A window that never advances would schedule forever (NaN too). *)
    Some "quantum must be > 0"
  else if cfg.autoscale <> None && cfg.slo = None then
    Some "autoscaling needs an SLO (pass an slo spec)"
  else if not (cfg.load > 0.0) then
    (* A NaN load makes every arrival time NaN: nothing would dispatch. *)
    Some (Printf.sprintf "load must be > 0 (got %g)" cfg.load)
  else if cfg.requests < 0 then
    Some (Printf.sprintf "requests must be >= 0 (got %d)" cfg.requests)
  else if cfg.queue_limit < 1 then
    (* A replica that admits nothing rejects every request. *)
    Some (Printf.sprintf "queue limit must be >= 1 (got %d)" cfg.queue_limit)
  else
    List.find_map
      (fun (e : Chaos.event_spec) ->
        match e.replica with
        | Some i when i >= cfg.replicas ->
          Some
            (Printf.sprintf
               "chaos: replica target r%d is out of range for %d replicas" i
               cfg.replicas)
        | _ -> None)
      (match cfg.chaos with Some c -> c.events | None -> [])

let replica_seed (cfg : config) idx generation =
  cfg.seed + (1_000_003 * (idx + 1)) + (7_919 * generation)

type build_error = Unsupported of string | Failed of string

let build_error_message = function
  | Unsupported msg -> "unsupported: " ^ msg
  | Failed msg -> msg

(* Build one replica process: heap, sim, api, server, verifier. Run by
   worker domains (initial setup and restarts alike); everything it
   touches is local to the slot being built. *)
let build_engine env ~heap_bytes ~seed =
  match Repro_heap.Heap_config.make ~heap_bytes () with
  | exception Invalid_argument msg -> Error (Failed msg)
  | heap_cfg -> (
    match
      let heap = Repro_heap.Heap.create heap_cfg in
      let sim = Sim.create Cost_model.default in
      let api = Api.create sim heap env.cfg.factory in
      let prng = Prng.create seed in
      (api, Mut.make_server api prng env.cfg.workload)
    with
    | api, Ok server ->
      let verifier =
        if env.cfg.verify = [] then None
        else Some (Verifier.attach ~points:env.cfg.verify api)
      in
      Mut.server_measurement_start server;
      Ok { api; server; verifier }
    | _, Error msg -> Error (Failed msg)
    | exception Collector.Unsupported msg -> Error (Unsupported msg))

let new_replica env idx eng =
  let lc = Lifecycle.create ~now:0.0 in
  if eng = None then Lifecycle.transition lc ~now:0.0 Down;
  (* The admission bound caps a window's copies at the queue limit. *)
  let cap = min env.cfg.queue_limit 64 in
  let signal =
    { Api.pause_start = Float.neg_infinity;
      pause_end = Float.neg_infinity;
      concurrent_threads = 0.0;
      drain_backlog = 0.0;
      occupancy = 0.0 }
  in
  Option.iter (fun e -> Api.refresh_gc_signal e.api signal) eng;
  { idx;
    lc;
    eng;
    clock =
      { offset = 0.0;
        busy_ns = 0.0;
        avail =
          (match eng with Some e -> Sim.now (Api.sim e.api) | None -> 0.0);
        est_service = env.service_wall;
        barrier_busy = 0.0;
        restart_at = Float.nan };
    heap_bytes = env.heap_bytes;
    latency = Histogram.create ();
    queueing = Histogram.create ();
    queue =
      { code = Array.make cap 0;
        sent = Array.make cap 0.0;
        wait = Array.make cap 0.0;
        finish = Array.make cap 0.0;
        len = 0 };
    dropped = 0;
    round_copies = 0;
    pending_restart = None;
    restart_error = None;
    dead_forever = false;
    stall = None;
    signal;
    oom = None;
    activated = eng <> None;
    acc_ladder = [];
    acc_pauses = Histogram.create ();
    acc_pause_count = 0;
    acc_gc_cpu = 0.0;
    acc_mut_cpu = 0.0;
    acc_checks = 0;
    acc_violations = 0;
    acc_wb_fast = None;
    acc_wb_slow = None }

let make_env (cfg : config) req =
  (* [nominal] is mutator CPU; the cost model spreads it over the
     replica's mutator threads, so the wall-clock service time a GC-idle
     replica actually exhibits is [nominal / speedup]. The front-end
     must reason in wall terms or it would drive every replica at a
     fraction of the intended utilization. *)
  let cost = Cost_model.default in
  let speedup =
    Float.of_int
      (max 1 (min cost.Cost_model.mutator_threads cost.Cost_model.cores))
  in
  let service_wall = Workload.nominal_service_ns cfg.workload req /. speedup in
  (* Resilience knobs. [resilient] switches replica death from a
     run-level failure into a lifecycle event; it is on whenever a chaos
     schedule or the autoscaler is, because both manage replica
     lifetimes. Without it the fleet behaves exactly as before: no
     warm-up ramp, no restarts, a death marks the run failed. *)
  let resilient = cfg.chaos <> None || cfg.autoscale <> None in
  let chaos = Option.value cfg.chaos ~default:Chaos.empty in
  { cfg;
    pool = Repro_par.Par.Pool.get ~threads:(max 1 cfg.domains);
    heap_bytes =
      int_of_float
        (cfg.heap_factor *. Float.of_int cfg.workload.min_heap_bytes);
    service_wall;
    (* Default quantum: a few wall service times. Small enough that the
       occupancy snapshot is fresh when a replica nears its collection
       trigger (a stale window keeps routing arrivals onto a replica
       that is about to pause), large enough that the per-round barrier
       cost stays negligible. *)
    quantum = Option.value cfg.quantum_ns ~default:(4.0 *. service_wall);
    resilient;
    auto_restart = cfg.chaos <> None && chaos.Chaos.auto_restart;
    restart_delay =
      Option.value chaos.Chaos.restart_delay_ns ~default:(64.0 *. service_wall);
    ramp_rounds =
      (if resilient then Option.value chaos.Chaos.warmup_rounds ~default:8
       else 0) }

(* Open-loop Poisson arrivals for the whole fleet, with chaos
   flash-crowd windows scaling the rate. Chaos event times resolve
   against the nominal span (requests x mean gap), which depends on no
   PRNG draw, so the fault timeline is fixed by (spec, seed) alone.
   Returns each request's arrival, indexed by id. *)
let schedule_arrivals env req ~t0 =
  let cfg = env.cfg in
  let front_prng = Prng.create cfg.seed in
  let fleet_gap =
    env.service_wall /. req.Workload.target_utilization
    /. (Float.of_int cfg.replicas *. Float.max 0.01 cfg.load)
  in
  let schedule =
    Chaos.schedule
      (Option.value cfg.chaos ~default:Chaos.empty)
      ~seed:cfg.seed ~replicas:cfg.replicas ~t0
      ~span:(Float.of_int cfg.requests *. fleet_gap)
  in
  let flash = Array.of_list (Chaos.flash_windows schedule) in
  let arrival = Array.make cfg.requests 0.0 in
  let t = ref t0 in
  for id = 0 to cfg.requests - 1 do
    (* The product of the flash-crowd factors whose window holds [!t]. *)
    let flash_mult = ref 1.0 in
    for w = 0 to Array.length flash - 1 do
      let s, e, f = flash.(w) in
      if !t >= s && !t < e then flash_mult := !flash_mult *. f
    done;
    t := !t +. Prng.exponential front_prng ~mean:(fleet_gap /. !flash_mult);
    arrival.(id) <- !t
  done;
  (arrival, schedule)

(* --- Admission and routing ----------------------------------------------- *)

let settle_terminal st id bucket =
  if not st.settled.(id) then begin
    st.settled.(id) <- true;
    (match bucket with
    | `Completed -> st.completed <- st.completed + 1
    | `Rejected -> st.rejected <- st.rejected + 1
    | `Dropped -> st.dropped <- st.dropped + 1
    | `Shed -> st.shed <- st.shed + 1);
    if bucket <> `Completed then Slo.observe st.slo ~latency_ns:Float.infinity
  end

(* A failed copy set: retry with exponential backoff when the client
   policy allows and the deadline has room, else land in the terminal
   [bucket]. *)
let fail_copy st id ~now bucket =
  if not st.settled.(id) then begin
    let retry = st.env.cfg.retry in
    let due = now +. Policy.Retry.delay retry ~attempt:st.attempts.(id) in
    let deadline_ok =
      match retry.Policy.Retry.timeout_ns with
      | None -> true
      | Some t -> due -. st.arrival.(id) <= t
    in
    if st.attempts.(id) < retry.Policy.Retry.max_attempts && deadline_ok
    then begin
      st.retries <- st.retries + 1;
      st.sent.(id) <- due;
      Vec.push st.retry_q id
    end
    else settle_terminal st id bucket
  end

(* Scoring shared by least-outstanding and gc-aware: estimated
   completion time of this arrival on that replica, from
   checkpoint-frozen state only. [est_service] rather than the static
   estimate -- GC degradation stretches real service times several-fold,
   and a stale constant makes the policy herd onto one replica until the
   admission bound bounces arrivals. *)
let[@inline] lo_score rep ~arrival =
  Float.max rep.clock.avail arrival
  +. (Float.of_int rep.queue.len *. rep.clock.est_service)

(* The gc-aware penalty. The predictive signal is occupancy: the replica
   closest to filling its heap triggers the next collection, so arrivals
   routed there are the ones that will stand behind its pause. The
   penalty ramps from zero at the [occ_floor] to the replica's last
   observed pause length at a full heap -- the actual cost of landing
   behind that pause -- and diverting also slows the replica's
   allocation rate, which delays its trigger and staggers collections
   across the fleet. A blanket concurrent-cycle penalty is deliberately
   mild (CPU stealing makes service a little slower): with small heaps
   the cycles run near-continuously, and penalizing them hard just
   concentrates the whole arrival stream on one replica until *it*
   pauses with everyone's requests in its queue. *)
let occ_floor = 0.75

(* Journalling collectors advertise drain backlog (unfolded write records
   + pending decrements). A small backlog is the steady state and must
   not steer routing; past the floor it predicts a longer catch-up phase
   in the next pause, so it ramps like the concurrent-cycle term — mild,
   capped at one service time. *)
let backlog_floor = 1024.0

let[@inline] gc_penalty rep =
  let s = rep.signal and est = rep.clock.est_service in
  let conc = if s.Api.concurrent_threads > 0.0 then 2.0 *. est else 0.0 in
  let drain =
    let b = s.Api.drain_backlog in
    if b > backlog_floor then
      Float.min 1.0 ((b -. backlog_floor) /. (7.0 *. backlog_floor)) *. est
    else 0.0
  in
  let imminent =
    if s.Api.occupancy > occ_floor then begin
      let pause_scale =
        if s.Api.pause_end > s.Api.pause_start then
          s.Api.pause_end -. s.Api.pause_start
        else 32.0 *. est
      in
      (s.Api.occupancy -. occ_floor) /. (1.0 -. occ_floor) *. pause_scale
    end
    else 0.0
  in
  conc +. drain +. imminent

let routable rep = Lifecycle.routable rep.lc && rep.eng <> None

(* The index of the lowest-scoring routable replica other than [exclude]
   (-1 when there is none), scored by [lo_score] plus, when [gc], the
   gc-aware penalty; ties go to the lowest index. Inlined, so no score
   is boxed. *)
let[@inline] argmin st ~exclude ~arrival ~gc =
  let reps = st.replicas in
  let best = ref (-1) and best_score = ref 0.0 in
  for i = 0 to Array.length reps - 1 do
    let rep = reps.(i) in
    if routable rep && i <> exclude then begin
      let s =
        if gc then lo_score rep ~arrival +. gc_penalty rep
        else lo_score rep ~arrival
      in
      if !best < 0 || not (!best_score <= s) then begin
        best := i;
        best_score := s
      end
    end
  done;
  !best

(* The policy's pick for request [id] at its dispatch time, never
   [exclude] (-1: no exclusion): a replica index, or -1 when nothing is
   routable. *)
let choose st ~exclude id =
  let arrival = st.sent.(id) in
  match st.env.cfg.policy with
  | Policy.Round_robin ->
    let reps = st.replicas in
    let k = Array.length reps in
    let pick = ref (-1) and tries = ref 0 in
    while !pick < 0 && !tries < k do
      let i = st.rr mod k in
      st.rr <- st.rr + 1;
      incr tries;
      if routable reps.(i) && i <> exclude then pick := i
    done;
    !pick
  | Policy.Least_outstanding -> argmin st ~exclude ~arrival ~gc:false
  | Policy.Gc_aware ->
    let plain = argmin st ~exclude ~arrival ~gc:false in
    let aware = argmin st ~exclude ~arrival ~gc:true in
    if plain >= 0 && plain <> aware then st.diversions <- st.diversions + 1;
    aware

(* Feed a copy of request [id] to [rep], sent at the request's dispatch
   time. *)
let admit st rep id ~hedge =
  let q = rep.queue in
  if q.len = Array.length q.code then begin
    let grow a =
      let b = Array.make (2 * q.len) 0.0 in
      Array.blit a 0 b 0 q.len;
      b
    in
    q.code <- Int_array.grow q.code (2 * q.len) 0;
    q.sent <- grow q.sent;
    q.wait <- grow q.wait;
    q.finish <- grow q.finish
  end;
  q.code.(q.len) <- (id lsl 1) lor Bool.to_int hedge;
  q.sent.(q.len) <- st.sent.(id);
  q.len <- q.len + 1

let admission_room env rep =
  rep.queue.len
  < Lifecycle.admission rep.lc ~queue_limit:env.cfg.queue_limit
      ~ramp_rounds:env.ramp_rounds

(* Dispatch request [id] at its [sent] time: pick a replica, bounce off
   the admission bound, optionally hedge. Fresh arrivals pass through
   brown-out shedding first; retries don't (shedding already-queued work
   wastes the backoff the client paid). *)
let dispatch st id ~fresh =
  let retry = st.env.cfg.retry in
  let at = st.sent.(id) in
  if st.settled.(id) then ()
  else if
    match retry.Policy.Retry.timeout_ns with
    | Some t -> at -. st.arrival.(id) > t
    | None -> false
  then settle_terminal st id `Dropped
  else begin
    let shed_frac = Slo.shedding st.slo in
    if fresh && shed_frac > 0.0 && Prng.float st.shed_prng 1.0 < shed_frac then
      settle_terminal st id `Shed
    else begin
      st.attempts.(id) <- st.attempts.(id) + 1;
      let r = choose st ~exclude:(-1) id in
      if r < 0 then
        (* Connection refused: nothing alive to take it. *)
        fail_copy st id ~now:at `Dropped
      else if not (admission_room st.env st.replicas.(r)) then
        (* Fast-fail rejection: the client backs off. *)
        fail_copy st id ~now:at `Rejected
      else begin
        let rep = st.replicas.(r) in
        admit st rep id ~hedge:false;
        (* Hedge: when the chosen replica's estimated queueing delay
           already exceeds the threshold, race a second copy on the
           next-best replica. *)
        match retry.Policy.Retry.hedge_ns with
        | Some h when lo_score rep ~arrival:at -. at > h ->
          let alt = choose st ~exclude:r id in
          if alt >= 0 && admission_room st.env st.replicas.(alt) then begin
            st.hedges <- st.hedges + 1;
            admit st st.replicas.(alt) id ~hedge:true
          end
        | Some _ | None -> ()
      end
    end
  end

(* Whether request [a] dispatches after request [b]: (time, id) order. *)
let later st a b =
  let ta = st.sent.(a) and tb = st.sent.(b) in
  ta > tb || (ta = tb && a > b)

(* Move the retries due before [window_end] out of the retry queue into
   [st.due], each clamped to the window start and sorted by (time, id).
   They are the copies earlier windows rejected whose backoff has run
   out, thousands per window under a long quantum or a small queue
   limit, so the sort is an O(k log k) heap sort in place. *)
let take_due_retries st ~window_start ~window_end =
  let q = st.retry_q and due = st.due and sent = st.sent in
  Vec.clear due;
  let i = ref 0 in
  while !i < Vec.length q do
    let id = Vec.get q !i in
    if sent.(id) < window_end then begin
      sent.(id) <- Float.max sent.(id) window_start;
      Vec.push due id;
      let last = Vec.pop q in
      if !i < Vec.length q then Vec.set q !i last
    end
    else incr i
  done;
  if Vec.length due > 1 then
    Vec.sort
      (fun a b -> if later st a b then 1 else if later st b a then -1 else 0)
      due

(* Dispatch the window's fresh arrivals and due retries in (time, id)
   order, through one merge: the arrivals are already in that order.
   Retries queued by this window's dispatches wait for the next
   window. *)
let dispatch_window st ~window_start ~window_end =
  take_due_retries st ~window_start ~window_end;
  let due = st.due and n = Array.length st.arrival in
  let next_due = ref 0 and more = ref true in
  while !more do
    let arriving = st.next < n && st.arrival.(st.next) < window_end
    and retrying = !next_due < Vec.length due in
    if
      arriving
      && ((not retrying) || not (later st st.next (Vec.get due !next_due)))
    then begin
      let id = st.next in
      st.next <- id + 1;
      dispatch st id ~fresh:true
    end
    else if retrying then begin
      let id = Vec.get due !next_due in
      incr next_due;
      dispatch st id ~fresh:false
    end
    else more := false
  done

(* --- Replica lifecycle --------------------------------------------------- *)

(* Copy [i] of [rep]'s queue is lost -- to a crash, an OOM or a dead
   process: it counts against the replica and resolves as a failure at
   the barrier. *)
let lose (rep : replica) i =
  rep.dropped <- rep.dropped + 1;
  rep.queue.finish.(i) <- Float.nan

(* Retire a replica's engine: fold its simulator, verifier and ladder
   counters into the per-replica accumulators and drop the process.
   [hooks] runs the clean-shutdown hooks (final collection, end-of-run
   verification) first; a crash skips them -- the process is simply
   gone. *)
let retire (rep : replica) ~hooks =
  match rep.eng with
  | None -> ()
  | Some e ->
    if hooks then Mut.server_finish e.server;
    (match e.verifier with
    | Some v ->
      if hooks then Verifier.finish v;
      rep.acc_checks <- rep.acc_checks + Verifier.checks_run v;
      rep.acc_violations <- rep.acc_violations + Verifier.total_violations v
    | None -> ());
    let sim = Api.sim e.api in
    rep.acc_pause_count <- rep.acc_pause_count + Sim.pause_count sim;
    Histogram.merge ~into:rep.acc_pauses (Sim.pauses sim);
    rep.acc_gc_cpu <- rep.acc_gc_cpu +. Sim.gc_cpu sim;
    rep.acc_mut_cpu <- rep.acc_mut_cpu +. Sim.mutator_cpu sim;
    rep.acc_ladder <-
      sum_ladders rep.acc_ladder (Api.ladder_alist (Api.ladder e.api));
    (* Write-barrier counters, for collectors that report them (lxr's
       field logging, journal_rc's journal appends). *)
    let cstats = (Api.collector e.api).Collector.stats () in
    let add acc k =
      match List.assoc_opt k cstats with
      | Some v -> Some (Option.value acc ~default:0.0 +. v)
      | None -> acc
    in
    rep.acc_wb_fast <- add rep.acc_wb_fast "wb_fast";
    rep.acc_wb_slow <- add rep.acc_wb_slow "wb_slow";
    rep.clock.avail <- rep.clock.offset +. Sim.now sim;
    rep.eng <- None

(* Kill a replica at fleet time [now]: the process dies, its freshly
   assigned batch is lost (the copies fail and flow into the retry
   path), and -- when recovery is on -- a relaunch is scheduled after
   the restart delay. *)
let kill env (rep : replica) ~now ~reason ~relaunch =
  for i = 0 to rep.queue.len - 1 do
    lose rep i
  done;
  retire rep ~hooks:false;
  rep.oom <- Some reason;
  if Lifecycle.state rep.lc <> Down then Lifecycle.transition rep.lc ~now Down;
  rep.pending_restart <- None;
  rep.clock.restart_at <-
    (if relaunch && not rep.dead_forever then now +. env.restart_delay
     else Float.nan)

(* Begin a relaunch for a Down replica right now; the worker builds the
   new process during the next round. *)
let begin_restart env (rep : replica) ~now =
  Lifecycle.transition rep.lc ~now Restarting;
  rep.restart_error <- None;
  (* The death reason dies with the relaunch, or the barrier would
     mistake the stale marker for a fresh worker death and kill the new
     process at its first barrier. *)
  rep.oom <- None;
  rep.pending_restart <-
    Some
      { ro_heap_bytes = rep.heap_bytes;
        ro_seed = replica_seed env.cfg rep.idx rep.lc.Lifecycle.restarts;
        ro_begun = now };
  rep.clock.restart_at <- Float.nan

(* Apply one chaos firing. We are between dispatch and the round, so a
   crash takes the freshly dispatched batch down with it. *)
let apply_firing st (f : Chaos.firing) =
  let env = st.env in
  st.chaos_events <- st.chaos_events + 1;
  match f.f_cls with
  | Chaos.Flash_crowd -> ()  (* consumed at arrival generation *)
  | Chaos.Replica_stall ->
    let rep = st.replicas.(f.f_replica) in
    if rep.eng <> None then rep.stall <- Some (f.f_start, f.f_end, f.f_factor)
  | Chaos.Replica_crash ->
    let rep = st.replicas.(f.f_replica) in
    if rep.eng <> None then
      kill env rep ~now:f.f_start ~reason:"chaos: replica crash"
        ~relaunch:env.auto_restart
  | Chaos.Heap_shrink ->
    let rep = st.replicas.(f.f_replica) in
    rep.heap_bytes <-
      max (1 lsl 16) (int_of_float (f.f_factor *. Float.of_int rep.heap_bytes));
    if rep.eng <> None then
      (* An operational resize is a controlled rolling restart: always
         relaunched, even with auto-restart off. *)
      kill env rep ~now:f.f_start ~reason:"chaos: heap shrink" ~relaunch:true
    else if Float.is_nan rep.clock.restart_at && env.auto_restart then
      rep.clock.restart_at <- f.f_start +. env.restart_delay

(* --- The replica round --------------------------------------------------- *)

(* One worker round on one replica: execute a pending relaunch, or serve
   the queued copies in feed order. Latency is end-to-end against the
   request's first fleet arrival; queueing is the wait before service
   start against this copy's dispatch time. *)
let serve_round env (rep : replica) =
  match rep.pending_restart with
  | Some order -> (
    match
      build_engine env ~heap_bytes:order.ro_heap_bytes ~seed:order.ro_seed
    with
    | Ok e ->
      rep.eng <- Some e;
      rep.clock.offset <- order.ro_begun;
      rep.activated <- true
    | Error err -> rep.restart_error <- Some (build_error_message err))
  | None -> (
    match rep.eng with
    | None -> ()
    | Some e ->
      let h = Sim.hot (Api.sim e.api) and c = rep.clock and q = rep.queue in
      for i = 0 to q.len - 1 do
        match rep.oom with
        | Some _ -> (* died earlier this round *) lose rep i
        | None -> (
          let arrival = q.sent.(i) in
          let local_arrival = arrival -. c.offset in
          let start = Float.max h.now local_arrival +. c.offset in
          match Mut.serve e.server ~arrival:local_arrival with
          | None ->
            (* Served: the replica's clock is the completion. A stalled
               replica still serves, slower: the antagonist charges
               extra compute proportional to the observed service
               time. *)
            (match rep.stall with
            | Some (s, en, f)
              when c.offset +. h.now >= s && c.offset +. h.now < en ->
              let svc = Float.max 0.0 (c.offset +. h.now -. start) in
              Api.work e.api ~ns:((f -. 1.0) *. svc);
              Api.safepoint e.api
            | _ -> ());
            let completion = c.offset +. h.now in
            rep.round_copies <- rep.round_copies + 1;
            c.busy_ns <- c.busy_ns +. (completion -. start);
            q.wait.(i) <- start -. arrival;
            q.finish.(i) <- completion
          | Some msg ->
            rep.oom <- Some msg;
            lose rep i)
      done)

(* --- Start ---------------------------------------------------------------- *)

(* Validate, build every initial replica in parallel (each from its own
   seed), and lay out the arrivals: the front-end's starting state, or
   the failed result that stops the run. *)
let start (cfg : config) =
  let fail msg = Error (failed cfg ~collector:"?" msg) in
  match cfg.workload.request with
  | None -> fail (cfg.workload.name ^ " carries no metered request model")
  | Some req -> (
    match rejection cfg with
    | Some msg -> fail msg
    | None -> (
      let env = make_env cfg req in
      let setups = Array.make cfg.replicas (Error (Failed "unbuilt")) in
      Repro_par.Par.parallel_for env.pool ~packets:cfg.replicas (fun i ->
          setups.(i) <-
            build_engine env ~heap_bytes:env.heap_bytes
              ~seed:(replica_seed cfg i 0));
      (* The lowest-index engine names the collector; the lowest-index
         failure stops the run. *)
      let collector = ref "?" and failure = ref None in
      for i = cfg.replicas - 1 downto 0 do
        match setups.(i) with
        | Ok e -> collector := (Api.collector e.api).Collector.name
        | Error (Unsupported _ as e) -> failure := Some (build_error_message e)
        | Error (Failed msg) ->
          failure :=
            Some (Printf.sprintf "setup failed on replica %d: %s" i msg)
      done;
      match !failure with
      | Some msg -> Error (failed cfg ~collector:!collector msg)
      | None ->
        (* Initial replicas, then the autoscaler's spare slots. *)
        let slots =
          match cfg.autoscale with
          | Some a -> max cfg.replicas a.Slo.Autoscale.max_replicas
          | None -> cfg.replicas
        in
        let replicas =
          Array.init slots (fun idx ->
              new_replica env idx
                (if idx < cfg.replicas then Result.to_option setups.(idx)
                 else None))
        in
        (* The fleet epoch: all initial replica clocks started at 0, so
           the latest post-setup clock is a shared timeline origin every
           replica can idle up to. *)
        let t0 =
          Array.fold_left
            (fun acc r -> Float.max acc r.clock.avail)
            0.0 replicas
        in
        Array.iter
          (fun r ->
            if r.eng = None then r.clock.avail <- t0;
            r.lc.Lifecycle.since <- t0)
          replicas;
        let arrival, schedule = schedule_arrivals env req ~t0 in
        let n = Array.length arrival in
        let busy = Array.make slots 0 in
        Ok
          { env;
            collector = !collector;
            replicas;
            arrival;
            sent = Array.copy arrival;
            attempts = Array.make n 0;
            settled = Array.make n false;
            best = Array.make n unresolved;
            t0;
            schedule;
            slo =
              (match cfg.slo with Some s -> Slo.create s | None -> Slo.none);
            scaler = Option.map Slo.Autoscale.create cfg.autoscale;
            shed_prng = Prng.create (cfg.seed lxor 0x73686564);
            next = 0;
            retry_q = Vec.create ();
            due = Vec.create ();
            rr = 0;
            busy;
            serve_busy = (fun k -> serve_round env replicas.(busy.(k)));
            completed = 0;
            rejected = 0;
            dropped = 0;
            shed = 0;
            timeouts = 0;
            retries = 0;
            hedges = 0;
            hedge_wins = 0;
            diversions = 0;
            chaos_events = 0;
            scale_ups = 0;
            scale_downs = 0 }))

(* --- The barrier --------------------------------------------------------- *)

(* Settle every copy that resolved this window. Copies of one request
   always resolve at the same barrier (dispatch and service share a
   window), so the first pass sees all of them: the earliest completion
   wins -- ties go to the copy fed first, and the win is attributed to
   the replica that produced it -- hedged losers are wasted work, and a
   request whose copies all failed enters the retry path once. *)
let settle st ~window_end =
  let reps = st.replicas and best = st.best in
  let slots = Array.length reps in
  (* Replica by replica, each in service order: every request's earliest
     completion ... *)
  for r = 0 to slots - 1 do
    let q = reps.(r).queue in
    for i = 0 to q.len - 1 do
      let id = q.code.(i) lsr 1 and t = q.finish.(i) in
      if best.(id) = unresolved then best.(id) <- no_completion;
      let b = best.(id) in
      if Float.is_nan t (* lost *)
         || (b >= 0 && reps.(b mod slots).queue.finish.(b / slots) <= t)
      then ()
      else best.(id) <- (i * slots) + r
    done
  done;
  (* ... then each request once, at its first copy in that order. *)
  for r = 0 to slots - 1 do
    let q = reps.(r).queue in
    for i = 0 to q.len - 1 do
      let id = q.code.(i) lsr 1 in
      let b = best.(id) in
      if b <> unresolved then begin
        best.(id) <- unresolved;
        if b = no_completion then fail_copy st id ~now:window_end `Dropped
        else if not st.settled.(id) then begin
          let rep = reps.(b mod slots) and j = b / slots in
          let wq = rep.queue in
          settle_terminal st id `Completed;
          if wq.code.(j) land 1 = 1 then st.hedge_wins <- st.hedge_wins + 1;
          let lat = Float.max 1.0 (wq.finish.(j) -. st.arrival.(id)) in
          (match st.env.cfg.retry.Policy.Retry.timeout_ns with
          | Some t when lat > t -> st.timeouts <- st.timeouts + 1
          | _ -> ());
          Slo.observe st.slo ~latency_ns:lat;
          Histogram.record rep.latency (int_of_float lat);
          Histogram.record rep.queueing
            (int_of_float (Float.max 1.0 wq.wait.(j)))
        end
      end
    done
  done;
  Array.iter (fun rep -> rep.queue.len <- 0) reps

(* The barrier's pass over one replica; it reads no other replica. *)
let barrier_replica env ~window_end (rep : replica) =
  (* A worker that hit allocation-ladder exhaustion this round dies
     here: in resilient mode that is a lifecycle event (relaunch
     scheduled); otherwise it stays down and the run reports the
     failure. *)
  (match (rep.eng, rep.oom) with
  | Some _, Some reason ->
    kill env rep ~now:window_end ~reason ~relaunch:env.auto_restart
  | _ -> ());
  (* Re-snapshot the front-end's frozen view. *)
  let c = rep.clock in
  (match rep.eng with
  | Some e ->
    c.avail <- c.offset +. (Sim.hot (Api.sim e.api)).now;
    Api.refresh_gc_signal e.api rep.signal
  | None -> ());
  if rep.round_copies > 0 then begin
    let round_mean =
      (c.busy_ns -. c.barrier_busy) /. Float.of_int rep.round_copies
    in
    c.est_service <- (0.7 *. c.est_service) +. (0.3 *. round_mean)
  end;
  c.barrier_busy <- c.busy_ns;
  rep.round_copies <- 0;
  (match rep.stall with
  | Some (_, e, _) when e <= window_end -> rep.stall <- None
  | _ -> ());
  (* Walk the lifecycle graph: warm-up ramps finish, drained replicas
     retire cleanly, completed relaunches enter their slow start. *)
  Lifecycle.tick_round rep.lc;
  match Lifecycle.state rep.lc with
  | Lifecycle.Warming ->
    if rep.lc.Lifecycle.rounds_in_state >= env.ramp_rounds then
      Lifecycle.transition rep.lc ~now:window_end Serving
  | Lifecycle.Serving | Lifecycle.Down -> ()
  | Lifecycle.Draining ->
    (* Batches drain within their round, so one round in Draining
       suffices: retire with clean-shutdown hooks. *)
    retire rep ~hooks:true;
    Lifecycle.transition rep.lc ~now:window_end Down;
    c.restart_at <- Float.nan
  | Lifecycle.Restarting -> (
    if rep.eng <> None then begin
      rep.pending_restart <- None;
      rep.oom <- None;
      c.est_service <- env.service_wall;
      Lifecycle.transition rep.lc ~now:window_end Warming
    end
    else
      match rep.restart_error with
      | Some msg ->
        rep.pending_restart <- None;
        rep.oom <- Some msg;
        rep.dead_forever <- true;
        Lifecycle.transition rep.lc ~now:window_end Down;
        c.restart_at <- Float.nan
      | None -> ())

let autoscale st ~window_end ~burn =
  match st.scaler with
  | None -> ()
  | Some sc -> (
    let active =
      Array.fold_left
        (fun acc rep ->
          match Lifecycle.state rep.lc with
          | Lifecycle.Warming | Lifecycle.Serving | Lifecycle.Restarting ->
            acc + 1
          | _ -> acc)
        0 st.replicas
    in
    match Slo.Autoscale.tick sc ~burn ~active with
    | `Hold -> ()
    | `Up -> (
      (* The lowest-index slot that can still come back. *)
      match
        Array.find_opt
          (fun rep ->
            Lifecycle.state rep.lc = Lifecycle.Down && not rep.dead_forever)
          st.replicas
      with
      | Some rep ->
        st.scale_ups <- st.scale_ups + 1;
        begin_restart st.env rep ~now:window_end
      | None -> ())
    | `Down -> (
      (* The highest-index routable replica drains. *)
      let victim = ref None in
      Array.iter
        (fun rep -> if routable rep then victim := Some rep)
        st.replicas;
      match !victim with
      | Some rep ->
        st.scale_downs <- st.scale_downs + 1;
        Lifecycle.transition rep.lc ~now:window_end Draining
      | None -> ()))

(* After the round: settle copies, walk every replica once, then close
   the SLO window and act on its burn. *)
let barrier st ~window_end =
  settle st ~window_end;
  for j = 0 to Array.length st.replicas - 1 do
    barrier_replica st.env ~window_end st.replicas.(j)
  done;
  Slo.tick st.slo ~now:window_end;
  let burn = Slo.burn st.slo in
  (* Publish the window's burn while the replicas are quiescent (between
     parallel rounds), so a controller factory reading it from inside
     replica engines sees a value frozen for the whole next round —
     deterministic across --domains. *)
  (match st.env.cfg.on_burn with Some f -> f burn | None -> ());
  autoscale st ~window_end ~burn

(* --- One window ---------------------------------------------------------- *)

(* Relaunches due at the window head, dispatch, chaos firings quantized
   to this checkpoint (after dispatch: a crash takes the fresh copies
   with it), the parallel replica rounds, then the barrier. Only a
   replica with copies to serve or a pending relaunch gets a packet,
   since [serve_round] does nothing for the others; which replicas
   those are depends on simulated state alone, and most windows have
   one, which the pool runs inline. *)
let window st ~window_start ~window_end =
  let replicas = st.replicas and busy = st.busy in
  for j = 0 to Array.length replicas - 1 do
    let rep = replicas.(j) in
    if
      Lifecycle.state rep.lc = Lifecycle.Down
      && (not (Float.is_nan rep.clock.restart_at))
      && rep.clock.restart_at <= window_start
    then begin_restart st.env rep ~now:window_start
  done;
  dispatch_window st ~window_start ~window_end;
  (match Chaos.due st.schedule ~until:window_end with
  | [] -> ()
  | fired -> List.iter (apply_firing st) fired);
  let n = ref 0 in
  for j = 0 to Array.length replicas - 1 do
    let rep = replicas.(j) in
    match (rep.pending_restart, rep.eng) with
    | None, None -> ()
    | None, Some _ when rep.queue.len = 0 -> ()
    | _ ->
      busy.(!n) <- j;
      incr n
  done;
  Repro_par.Par.parallel_for st.env.pool ~packets:!n st.serve_busy;
  barrier st ~window_end

let pending st = st.next < Array.length st.arrival || Vec.length st.retry_q > 0

(* The fleet can still make progress as long as something is routable,
   relaunching, or scheduled to relaunch. *)
let hopeless st =
  Array.for_all
    (fun rep ->
      (not (routable rep))
      && Lifecycle.state rep.lc <> Lifecycle.Restarting
      && rep.pending_restart = None
      && Float.is_nan rep.clock.restart_at)
    st.replicas

(* Where the window after one ending at [t] starts: [t], fast-forwarded
   over empty quanta so lightly-loaded fleets do not spin through
   windows with nothing to schedule -- but only when no replica is
   mid-transition (drain, relaunch). *)
let next_window st ~t =
  let quantum = st.env.quantum in
  let quiescent =
    Array.for_all
      (fun rep ->
        rep.pending_restart = None
        &&
        match Lifecycle.state rep.lc with
        | Lifecycle.Draining | Lifecycle.Restarting -> false
        | _ -> true)
      st.replicas
  in
  if not quiescent then t
  else
    let e =
      ref
        (if st.next < Array.length st.arrival then st.arrival.(st.next)
         else Float.infinity)
    in
    for i = 0 to Vec.length st.retry_q - 1 do
      e := Float.min !e st.sent.(Vec.get st.retry_q i)
    done;
    for j = 0 to Array.length st.replicas - 1 do
      let c = st.replicas.(j).clock in
      if not (Float.is_nan c.restart_at) then e := Float.min !e c.restart_at
    done;
    let e = !e in
    if e < Float.infinity && e >= t +. quantum then
      t +. (quantum *. Float.trunc ((e -. t) /. quantum))
    else t

(* --- The report ---------------------------------------------------------- *)

let replica_stats ~t0 ~wall_ns (rep : replica) =
  { r_index = rep.idx;
    r_served = Histogram.count rep.latency;
    r_dropped = rep.dropped;
    r_latency = rep.latency;
    r_queueing = rep.queueing;
    r_busy_ns = rep.clock.busy_ns;
    r_wall_ns = rep.clock.avail -. t0;
    r_utilization =
      (if wall_ns > 0.0 then rep.clock.busy_ns /. wall_ns else 0.0);
    r_pause_count = rep.acc_pause_count;
    r_pauses = rep.acc_pauses;
    r_gc_cpu_ns = rep.acc_gc_cpu;
    r_mutator_cpu_ns = rep.acc_mut_cpu;
    r_oom = rep.oom;
    r_state = Lifecycle.state_name (Lifecycle.state rep.lc);
    r_restarts = rep.lc.Lifecycle.restarts;
    r_time_in = Lifecycle.time_in_alist rep.lc;
    r_ladder = rep.acc_ladder;
    r_wb_fast = rep.acc_wb_fast;
    r_wb_slow = rep.acc_wb_slow }

(* Drop whatever the dark fleet never routed, wind the replicas down
   (final collector hooks and end-of-run verification, still
   replica-parallel) and fold everything into the result. *)
let report st =
  let env = st.env and replicas = st.replicas in
  let cfg = env.cfg in
  let n = Array.length st.arrival in
  for id = st.next to n - 1 do
    settle_terminal st id `Dropped
  done;
  Vec.iter (fun id -> settle_terminal st id `Dropped) st.retry_q;
  Repro_par.Par.parallel_for env.pool ~packets:(Array.length replicas)
    (fun j -> retire replicas.(j) ~hooks:true);
  let wall_end =
    Array.fold_left
      (fun acc rep ->
        if rep.activated then Float.max acc rep.clock.avail else acc)
      st.t0 replicas
  in
  let wall_ns = wall_end -. st.t0 in
  Array.iter (fun rep -> Lifecycle.finish rep.lc ~now:wall_end) replicas;
  let sum f = Array.fold_left (fun acc rep -> acc + f rep) 0 replicas in
  let sumf f = Array.fold_left (fun acc rep -> acc +. f rep) 0.0 replicas in
  let merged f =
    let h = Histogram.create () in
    Array.iter (fun rep -> Histogram.merge ~into:h (f rep)) replicas;
    h
  in
  let violations = sum (fun rep -> rep.acc_violations) in
  let error =
    match
      Array.find_map
        (fun rep ->
          Option.map (Printf.sprintf "replica %d: %s" rep.idx) rep.oom)
        replicas
    with
    | Some msg when not env.resilient -> Some ("out of memory: " ^ msg)
    | _ ->
      if violations > 0 then
        Some (Printf.sprintf "%d integrity violations" violations)
      else None
  in
  { workload = cfg.workload.name;
    collector = st.collector;
    policy = cfg.policy;
    replicas = cfg.replicas;
    domains = cfg.domains;
    heap_factor = cfg.heap_factor;
    ok = error = None;
    error;
    requests = n;
    completed = st.completed;
    rejected = st.rejected;
    dropped = st.dropped;
    shed = st.shed;
    timeouts = st.timeouts;
    retries = st.retries;
    hedges = st.hedges;
    hedge_wins = st.hedge_wins;
    wall_ns;
    latency = merged (fun rep -> rep.latency);
    queueing = merged (fun rep -> rep.queueing);
    diversions = st.diversions;
    availability =
      (if n = 0 then 1.0
       else Float.of_int (st.completed - st.timeouts) /. Float.of_int n);
    chaos_events = st.chaos_events;
    scale_ups = st.scale_ups;
    scale_downs = st.scale_downs;
    slo_peak_burn = Slo.peak_burn st.slo;
    slo_breach_rounds = Slo.breach_rounds st.slo;
    slo_shed_rounds = Slo.shed_rounds st.slo;
    slo_timeline = Slo.timeline st.slo;
    ladder =
      Array.fold_left
        (fun acc rep -> sum_ladders acc rep.acc_ladder)
        [] replicas;
    wb_fast = sumf (fun rep -> Option.value rep.acc_wb_fast ~default:0.0);
    wb_slow = sumf (fun rep -> Option.value rep.acc_wb_slow ~default:0.0);
    verifier_checks = sum (fun rep -> rep.acc_checks);
    violations;
    per_replica =
      Array.to_list replicas
      |> List.filter_map (fun rep ->
             if rep.activated then Some (replica_stats ~t0:st.t0 ~wall_ns rep)
             else None) }

let run cfg =
  match start cfg with
  | Error r -> r
  | Ok st ->
    let rec loop t =
      if (not (pending st)) || hopeless st then report st
      else
        let window_end = t +. st.env.quantum in
        (* The clock grows during the run, so a quantum can stop
           advancing it long after setup accepted it. *)
        if not (window_end > t) then
          failed cfg ~collector:st.collector
            (Printf.sprintf
               "quantum %g ns no longer advances the clock at %g ns"
               st.env.quantum t)
        else begin
          window st ~window_start:t ~window_end;
          loop (next_window st ~t:window_end)
        end
    in
    loop st.t0
