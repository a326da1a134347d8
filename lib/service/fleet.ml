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
  gc_threads : int;
  verify : Verifier.safepoint list;
  chaos : Chaos.spec option;
  retry : Policy.Retry.t;
  slo : Slo.spec option;
  autoscale : Slo.Autoscale.spec option;
  on_burn : (float -> unit) option;
}

let config ?(replicas = 4) ?(heap_factor = 1.3) ?(policy = Policy.Gc_aware)
    ?(seed = 42) ?requests ?(load = 1.0) ?(queue_limit = 64) ?quantum_ns
    ?(domains = 1) ?(gc_threads = 1) ?(verify = []) ?chaos
    ?(retry = Policy.Retry.none) ?slo ?autoscale ?on_burn ~workload ~factory
    () =
  let requests =
    match requests with
    | Some n -> n
    | None -> (
      match workload.Workload.request with Some r -> r.count | None -> 0)
  in
  { workload; factory; replicas; heap_factor; policy; seed; requests; load;
    queue_limit; quantum_ns; domains; gc_threads; verify; chaos; retry; slo;
    autoscale; on_burn }

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
  r_wb_fast : float;
  r_wb_slow : float;
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

let qps r =
  match qps_opt r with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Fleet.qps: no throughput for %s/%s (%s)" r.workload
         r.collector
         (match r.error with
         | Some m -> m
         | None -> "no completed requests"))

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

(* One request's journey through the front-end. A request is dispatched
   as one or (when hedged) two copies; dispatch and service share a
   scheduling window, so every copy of one request resolves at the same
   barrier and the front-end settles each request exactly once. *)
type rq = {
  id : int;
  orig_arrival : float;  (* first fleet arrival: the latency baseline *)
  mutable attempts : int;  (* dispatches so far, hedge copies excluded *)
  mutable settled : bool;  (* reached a terminal bucket *)
}

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

(* One copy outcome, written by a worker during its round (or by the
   front-end for copies lost to a crash) and folded at the barrier. *)
type attempt = {
  at_rq : rq;
  at_replica : int;
  at_hedge : bool;
  at_arrival : float;  (* this copy's dispatch time *)
  at_start : float;  (* fleet time service began; arrival for failures *)
  at_outcome : (float, string) Stdlib.result;  (* fleet completion time *)
}

(* One replica slot: engine, lifecycle, and the front-end's frozen view.
   [batch], [pending_restart] and [stall] are written by the front-end
   between rounds and read by exactly one worker during a round;
   [eng], [results], [copies], [busy_ns], [dropped], [oom] and
   [restart_error] are written by that worker and re-read by the
   front-end only after the round barrier, so there are no data races. *)
type replica = {
  idx : int;
  lc : Lifecycle.t;
  mutable eng : engine option;
  mutable offset : float;  (* fleet time = offset + replica-local clock *)
  mutable heap_bytes : int;  (* current process heap (shrinks shrink it) *)
  latency : Histogram.t;
  queueing : Histogram.t;
  mutable batch : (rq * float * bool) list;  (* (rq, arrival, hedge), rev *)
  mutable results : attempt list;  (* worker-written, reversed *)
  mutable served : int;  (* winning completions settled on this replica *)
  mutable dropped : int;  (* copies lost here: crash, OOM, dead process *)
  mutable copies : int;  (* copies actually served, hedges included *)
  mutable busy_ns : float;
  mutable pending_restart : restart_order option;
  mutable restart_error : string option;
  mutable restart_at : float;  (* fleet time a Down replica may relaunch;
                                  nan = stays down *)
  mutable dead_forever : bool;  (* a relaunch failed to build: no revival *)
  mutable stall : (float * float * float) option;  (* start, end, factor *)
  (* Checkpoint-frozen scheduling state. *)
  mutable avail : float;  (* fleet-time clock at the last barrier *)
  mutable assigned : int;  (* handed out since the last barrier *)
  mutable signal : Api.gc_signal;
  mutable est_service : float;  (* EWMA of observed wall service time *)
  mutable barrier_busy : float;  (* busy_ns snapshot at the last barrier *)
  mutable barrier_copies : int;  (* copies snapshot at the last barrier *)
  mutable oom : string option;  (* last death reason; None while healthy *)
  mutable activated : bool;  (* ever held an engine (spares start false) *)
  (* Accumulators across engine generations (restarts). *)
  acc_ladder : Api.ladder_counts;
  acc_pauses : Histogram.t;
  mutable acc_pause_count : int;
  mutable acc_gc_cpu : float;
  mutable acc_mut_cpu : float;
  mutable acc_checks : int;
  mutable acc_violations : int;
  mutable acc_wb_fast : float;
  mutable acc_wb_slow : float;
}

(* Deterministic parallel-for over the shared work-packet pool: one
   replica per packet, each touching disjoint state, with the pool's
   completion wait as the round barrier. The fleet and the collectors'
   GC phases share this single pool, so replica rounds and GC packets
   never oversubscribe the host: a collector phase reaching the pool
   from inside a replica round finds it busy and runs inline
   (Par.Pool's re-entrancy rule). *)
let parallel_over pool n f =
  Repro_par.Par.map_merge pool ~packets:n ~f ~merge:(fun _ () -> ())

let add_ladder (into : Api.ladder_counts) (l : Api.ladder_counts) =
  into.young_collections <- into.young_collections + l.young_collections;
  into.full_collections <- into.full_collections + l.full_collections;
  into.emergency_compactions <-
    into.emergency_compactions + l.emergency_compactions;
  into.reserve_releases <- into.reserve_releases + l.reserve_releases;
  into.exhaustions <- into.exhaustions + l.exhaustions

let idle_signal =
  { Api.busy_until = 0.0;
    pause_start = Float.neg_infinity;
    pause_end = Float.neg_infinity;
    concurrent_active = false;
    drain_backlog = 0;
    occupancy = 0.0 }

let run (cfg : config) =
  let w = cfg.workload in
  match w.Workload.request with
  | None -> failed cfg ~collector:"?" (w.name ^ " carries no metered request model")
  | Some _ when cfg.replicas < 1 -> failed cfg ~collector:"?" "needs >= 1 replica"
  | Some _
    when match cfg.quantum_ns with Some q -> not (q > 0.0) | None -> false ->
    (* A window that never advances would schedule forever (NaN too). *)
    failed cfg ~collector:"?" "quantum must be > 0"
  | Some _ when cfg.autoscale <> None && cfg.slo = None ->
    failed cfg ~collector:"?" "autoscaling needs an SLO (pass an slo spec)"
  | Some req -> (
    let heap_bytes =
      int_of_float (cfg.heap_factor *. Float.of_int w.min_heap_bytes)
    in
    let nominal = Workload.nominal_service_ns w req in
    (* [nominal] is mutator CPU; the cost model spreads it over the
       replica's mutator threads, so the wall-clock service time a
       GC-idle replica actually exhibits is [nominal / speedup]. The
       front-end must reason in wall terms or it would drive every
       replica at a fraction of the intended utilization. *)
    let cost = Cost_model.default in
    let speedup =
      Float.of_int (max 1 (min cost.Cost_model.mutator_threads cost.Cost_model.cores))
    in
    let service_wall = nominal /. speedup in
    (* Default quantum: a few wall service times. Small enough that the
       occupancy snapshot is fresh when a replica nears its collection
       trigger (a stale window keeps routing arrivals onto a replica
       that is about to pause), large enough that the per-round barrier
       cost stays negligible. *)
    let quantum =
      match cfg.quantum_ns with Some q -> q | None -> 4.0 *. service_wall
    in
    (* Resilience knobs. [resilient] switches replica death from a
       run-level failure into a lifecycle event; it is on whenever a
       chaos schedule or the autoscaler is, because both manage replica
       lifetimes. Without it the fleet behaves exactly as before: no
       warm-up ramp, no restarts, a death marks the run failed. *)
    let resilient = cfg.chaos <> None || cfg.autoscale <> None in
    let chaos_spec = Option.value cfg.chaos ~default:Chaos.empty in
    let auto_restart = cfg.chaos <> None && chaos_spec.Chaos.auto_restart in
    let restart_delay =
      match chaos_spec.Chaos.restart_delay_ns with
      | Some d -> d
      | None -> 64.0 *. service_wall
    in
    let ramp_rounds =
      if resilient then Option.value chaos_spec.Chaos.warmup_rounds ~default:8
      else 0
    in
    let slots =
      match cfg.autoscale with
      | Some a -> max cfg.replicas a.Slo.Autoscale.max_replicas
      | None -> cfg.replicas
    in
    (* One pool serves both replica rounds and the collectors' GC
       packets (sized for whichever wants more lanes). *)
    let pool =
      Repro_par.Par.Pool.get ~threads:(max 1 (max cfg.domains cfg.gc_threads))
    in
    let replica_seed idx generation =
      cfg.seed + (1_000_003 * (idx + 1)) + (7_919 * generation)
    in
    (* Build one replica process: heap, sim, api, server, verifier. Run
       by worker domains (initial setup and restarts alike); everything
       it touches is local to the slot being built. *)
    let build_engine ~heap_bytes ~seed =
      match Repro_heap.Heap_config.make ~heap_bytes () with
      | exception Invalid_argument msg -> Error msg
      | heap_cfg -> (
        match
          let heap = Repro_heap.Heap.create heap_cfg in
          let sim = Sim.create Cost_model.default in
          Sim.set_pool sim pool;
          let api = Api.create sim heap cfg.factory in
          let prng = Prng.create seed in
          (api, Mut.make_server api prng w)
        with
        | api, Ok server ->
          let verifier =
            if cfg.verify = [] then None
            else Some (Verifier.attach ~points:cfg.verify api)
          in
          Mut.server_measurement_start server;
          Ok { api; server; verifier }
        | _, Error msg -> Error msg
        | exception Collector.Unsupported msg ->
          Error ("unsupported: " ^ msg))
    in
    (* Setup phase, replica-parallel: each initial replica builds its
       own long-lived structure from its own seed. *)
    let setups = Array.make cfg.replicas (Error "unbuilt") in
    parallel_over pool cfg.replicas (fun i ->
        setups.(i) <- build_engine ~heap_bytes ~seed:(replica_seed i 0));
    let collector_name =
      match
        Array.to_seq setups
        |> Seq.filter_map (function Ok e -> Some e | Error _ -> None)
        |> Seq.uncons
      with
      | Some (e, _) -> (Api.collector e.api).Collector.name
      | None -> "?"
    in
    let setup_failure =
      Array.to_seq setups
      |> Seq.mapi (fun i s -> (i, s))
      |> Seq.filter_map (function
           | i, Error msg -> Some (i, msg)
           | _, Ok _ -> None)
      |> Seq.uncons
    in
    match setup_failure with
    | Some ((i, msg), _) ->
      if String.length msg >= 12 && String.sub msg 0 12 = "unsupported:" then
        failed cfg ~collector:collector_name msg
      else
        failed cfg ~collector:collector_name
          (Printf.sprintf "setup failed on replica %d: %s" i msg)
    | None ->
      let replicas =
        Array.init slots (fun idx ->
            let eng =
              if idx < cfg.replicas then
                match setups.(idx) with Ok e -> Some e | Error _ -> None
              else None
            in
            let lc = Lifecycle.create ~now:0.0 in
            if eng = None then Lifecycle.transition lc ~now:0.0 Down;
            { idx;
              lc;
              eng;
              offset = 0.0;
              heap_bytes;
              latency = Histogram.create ();
              queueing = Histogram.create ();
              batch = [];
              results = [];
              served = 0;
              dropped = 0;
              copies = 0;
              busy_ns = 0.0;
              pending_restart = None;
              restart_error = None;
              restart_at = Float.nan;
              dead_forever = false;
              stall = None;
              avail =
                (match eng with
                | Some e -> Sim.now (Api.sim e.api)
                | None -> 0.0);
              assigned = 0;
              signal =
                (match eng with
                | Some e -> Api.gc_signal e.api
                | None -> idle_signal);
              est_service = service_wall;
              barrier_busy = 0.0;
              barrier_copies = 0;
              oom = None;
              activated = idx < cfg.replicas;
              acc_ladder =
                { young_collections = 0; full_collections = 0;
                  emergency_compactions = 0; reserve_releases = 0;
                  exhaustions = 0 };
              acc_pauses = Histogram.create ();
              acc_pause_count = 0;
              acc_gc_cpu = 0.0;
              acc_mut_cpu = 0.0;
              acc_checks = 0;
              acc_violations = 0;
              acc_wb_fast = 0.0;
              acc_wb_slow = 0.0 })
      in
      (* The fleet epoch: all initial replica clocks started at 0, so
         the latest post-setup clock is a shared timeline origin every
         replica can idle up to. *)
      let t0 =
        Array.fold_left (fun acc r -> Float.max acc r.avail) 0.0 replicas
      in
      Array.iter
        (fun r ->
          if r.eng = None then r.avail <- t0;
          r.lc.Lifecycle.since <- t0)
        replicas;
      (* Open-loop Poisson arrivals for the whole fleet, with chaos
         flash-crowd windows scaling the rate. Chaos event times resolve
         against the nominal span (requests x mean gap), which depends
         on no PRNG draw, so the fault timeline is fixed by (spec, seed)
         alone. *)
      let front_prng = Prng.create cfg.seed in
      let shed_prng = Prng.create (cfg.seed lxor 0x73686564) in
      let fleet_gap =
        service_wall /. req.target_utilization
        /. (Float.of_int cfg.replicas *. Float.max 0.01 cfg.load)
      in
      let span = Float.of_int cfg.requests *. fleet_gap in
      let schedule =
        Chaos.schedule chaos_spec ~seed:cfg.seed ~replicas:cfg.replicas ~t0
          ~span
      in
      let flash = Chaos.flash_windows schedule in
      let flash_mult t =
        List.fold_left
          (fun m (s, e, f) -> if t >= s && t < e then m *. f else m)
          1.0 flash
      in
      let arrivals =
        let t = ref t0 in
        Array.init cfg.requests (fun _ ->
            let gap = fleet_gap /. flash_mult !t in
            t := !t +. Prng.exponential front_prng ~mean:gap;
            !t)
      in
      let requests =
        Array.mapi
          (fun id at ->
            { id; orig_arrival = at; attempts = 0; settled = false })
          arrivals
      in
      (* Terminal buckets (each request lands in exactly one) ... *)
      let completed = ref 0 in
      let rejected = ref 0 in
      let dropped = ref 0 in
      let shed = ref 0 in
      (* ... and event counters. *)
      let timeouts = ref 0 in
      let retries = ref 0 in
      let hedges = ref 0 in
      let hedge_wins = ref 0 in
      let diversions = ref 0 in
      let chaos_events = ref 0 in
      let scale_ups = ref 0 in
      let scale_downs = ref 0 in
      let slo_mon = Option.map Slo.create cfg.slo in
      let scaler = Option.map Slo.Autoscale.create cfg.autoscale in
      let rr = ref 0 in
      (* Copies the front-end itself failed this window (crash dumps):
         folded with worker results at the barrier so every copy of a
         request resolves together. *)
      let front_failures = ref [] in
      let retry_q = ref [] in  (* (due, rq), unordered *)
      let slo_observe_failure () =
        match slo_mon with
        | Some m -> Slo.observe m ~latency_ns:Float.infinity
        | None -> ()
      in
      let settle_terminal rq bucket =
        if not rq.settled then begin
          rq.settled <- true;
          (match bucket with
          | `Completed -> incr completed
          | `Rejected -> incr rejected
          | `Dropped -> incr dropped
          | `Shed -> incr shed);
          if bucket <> `Completed then slo_observe_failure ()
        end
      in
      (* A failed copy set: retry with exponential backoff when the
         client policy allows and the deadline has room, else land in
         the terminal [bucket]. *)
      let fail_copy rq ~now bucket =
        if not rq.settled then begin
          let due =
            now +. Policy.Retry.delay cfg.retry ~attempt:rq.attempts
          in
          let deadline_ok =
            match cfg.retry.Policy.Retry.timeout_ns with
            | None -> true
            | Some t -> due -. rq.orig_arrival <= t
          in
          if rq.attempts < cfg.retry.Policy.Retry.max_attempts && deadline_ok
          then begin
            incr retries;
            retry_q := (due, rq) :: !retry_q
          end
          else settle_terminal rq bucket
        end
      in
      (* Scoring shared by least-outstanding and gc-aware: estimated
         completion time of this arrival on that replica, from
         checkpoint-frozen state only. [est_service] rather than the
         static estimate -- GC degradation stretches real service times
         several-fold, and a stale constant makes the policy herd onto
         one replica until the admission bound bounces arrivals. *)
      let lo_score rep ~arrival =
        Float.max rep.avail arrival
        +. (Float.of_int rep.assigned *. rep.est_service)
      in
      (* The gc-aware penalty. The predictive signal is occupancy: the
         replica closest to filling its heap triggers the next
         collection, so arrivals routed there are the ones that will
         stand behind its pause. The penalty ramps from zero at the
         [occ_floor] to the replica's last observed pause length at a
         full heap -- the actual cost of landing behind that pause --
         and diverting also slows the replica's allocation rate, which
         delays its trigger and staggers collections across the fleet.
         A blanket concurrent-cycle penalty is deliberately mild (CPU
         stealing makes service a little slower): with small heaps the
         cycles run near-continuously, and penalizing them hard just
         concentrates the whole arrival stream on one replica until
         *it* pauses with everyone's requests in its queue. *)
      let occ_floor = 0.75 in
      (* Journalling collectors advertise drain backlog (unfolded write
         records + pending decrements). A small backlog is the steady
         state and must not steer routing; past the floor it predicts a
         longer catch-up phase in the next pause, so it ramps like the
         concurrent-cycle term — mild, capped at one service time. *)
      let backlog_floor = 1024.0 in
      let gc_penalty rep =
        let s = rep.signal in
        let conc =
          if s.Api.concurrent_active then 2.0 *. rep.est_service else 0.0
        in
        let drain =
          let b = Float.of_int s.Api.drain_backlog in
          if b > backlog_floor then
            Float.min 1.0 ((b -. backlog_floor) /. (7.0 *. backlog_floor))
            *. rep.est_service
          else 0.0
        in
        let imminent =
          if s.Api.occupancy > occ_floor then begin
            let pause_scale =
              if s.Api.pause_end > s.Api.pause_start then
                s.Api.pause_end -. s.Api.pause_start
              else 32.0 *. rep.est_service
            in
            (s.Api.occupancy -. occ_floor) /. (1.0 -. occ_floor)
            *. pause_scale
          end
          else 0.0
        in
        conc +. drain +. imminent
      in
      let routable rep = Lifecycle.routable rep.lc && rep.eng <> None in
      let argmin ?(exclude = -1) score =
        let best = ref None in
        Array.iter
          (fun rep ->
            if routable rep && rep.idx <> exclude then
              let s = score rep in
              match !best with
              | Some (s', _) when s' <= s -> ()
              | _ -> best := Some (s, rep))
          replicas;
        Option.map snd !best
      in
      let choose ?(exclude = -1) ~arrival () =
        match cfg.policy with
        | Policy.Round_robin ->
          let k = Array.length replicas in
          let rec next tries =
            if tries >= k then None
            else begin
              let rep = replicas.(!rr mod k) in
              incr rr;
              if routable rep && rep.idx <> exclude then Some rep
              else next (tries + 1)
            end
          in
          next 0
        | Policy.Least_outstanding -> argmin ~exclude (lo_score ~arrival)
        | Policy.Gc_aware ->
          let plain = argmin ~exclude (lo_score ~arrival) in
          let aware =
            argmin ~exclude (fun rep -> lo_score rep ~arrival +. gc_penalty rep)
          in
          (match (plain, aware) with
          | Some p, Some a when p.idx <> a.idx -> incr diversions
          | _ -> ());
          aware
      in
      let admit rep rq ~arrival ~hedge =
        rep.batch <- (rq, arrival, hedge) :: rep.batch;
        rep.assigned <- rep.assigned + 1
      in
      let admission_room rep =
        rep.assigned
        < Lifecycle.admission rep.lc ~queue_limit:cfg.queue_limit ~ramp_rounds
      in
      (* Dispatch one request at [arrival]: pick a replica, bounce off
         the admission bound, optionally hedge. Fresh arrivals pass
         through brown-out shedding first; retries don't (shedding
         already-queued work wastes the backoff the client paid). *)
      let dispatch rq ~arrival ~fresh =
        if rq.settled then ()
        else begin
          let deadline_exceeded =
            match cfg.retry.Policy.Retry.timeout_ns with
            | Some t -> arrival -. rq.orig_arrival > t
            | None -> false
          in
          if deadline_exceeded then settle_terminal rq `Dropped
          else begin
            let shed_frac =
              match slo_mon with Some m -> Slo.shedding m | None -> 0.0
            in
            if fresh && shed_frac > 0.0 && Prng.float shed_prng 1.0 < shed_frac
            then settle_terminal rq `Shed
            else
              match choose ~arrival () with
              | None ->
                (* Connection refused: nothing alive to take it. *)
                rq.attempts <- rq.attempts + 1;
                fail_copy rq ~now:arrival `Dropped
              | Some rep ->
                if not (admission_room rep) then begin
                  (* Fast-fail rejection: the client backs off. *)
                  rq.attempts <- rq.attempts + 1;
                  fail_copy rq ~now:arrival `Rejected
                end
                else begin
                  rq.attempts <- rq.attempts + 1;
                  admit rep rq ~arrival ~hedge:false;
                  (* Hedge: when the chosen replica's estimated queueing
                     delay already exceeds the threshold, race a second
                     copy on the next-best replica. *)
                  match cfg.retry.Policy.Retry.hedge_ns with
                  | Some h when lo_score rep ~arrival -. arrival > h -> (
                    match choose ~exclude:rep.idx ~arrival () with
                    | Some alt when admission_room alt ->
                      incr hedges;
                      admit alt rq ~arrival ~hedge:true
                    | Some _ | None -> ())
                  | Some _ | None -> ()
                end
          end
        end
      in
      (* Retire a replica's engine: fold its simulator, verifier and
         ladder counters into the per-replica accumulators and drop the
         process. [hooks] runs the clean-shutdown hooks (final
         collection, end-of-run verification) first; a crash skips
         them -- the process is simply gone. *)
      let retire rep ~hooks =
        match rep.eng with
        | None -> ()
        | Some e ->
          if hooks then Mut.server_finish e.server;
          (match e.verifier with
          | Some v ->
            if hooks then Verifier.finish v;
            rep.acc_checks <- rep.acc_checks + Verifier.checks_run v;
            rep.acc_violations <-
              rep.acc_violations + Verifier.total_violations v
          | None -> ());
          let sim = Api.sim e.api in
          rep.acc_pause_count <- rep.acc_pause_count + Sim.pause_count sim;
          Histogram.merge ~into:rep.acc_pauses (Sim.pauses sim);
          rep.acc_gc_cpu <- rep.acc_gc_cpu +. Sim.gc_cpu sim;
          rep.acc_mut_cpu <- rep.acc_mut_cpu +. Sim.mutator_cpu sim;
          add_ladder rep.acc_ladder (Api.ladder e.api);
          (* Write-barrier counters, for collectors that report them
             (lxr's field logging, journal_rc's journal appends). *)
          let cstats = (Api.collector e.api).Collector.stats () in
          let stat k =
            match List.assoc_opt k cstats with Some v -> v | None -> 0.0
          in
          rep.acc_wb_fast <- rep.acc_wb_fast +. stat "wb_fast";
          rep.acc_wb_slow <- rep.acc_wb_slow +. stat "wb_slow";
          rep.avail <- rep.offset +. Sim.now sim;
          rep.signal <- idle_signal;
          rep.eng <- None
      in
      (* Kill a replica at fleet time [now]: the process dies, its
         freshly assigned batch is lost (the copies fail and flow into
         the retry path), and -- when recovery is on -- a relaunch is
         scheduled after the restart delay. *)
      let kill rep ~now ~reason ~relaunch =
        List.iter
          (fun (rq, arrival, hedge) ->
            rep.dropped <- rep.dropped + 1;
            front_failures :=
              { at_rq = rq; at_replica = rep.idx; at_hedge = hedge;
                at_arrival = arrival; at_start = arrival;
                at_outcome = Error reason }
              :: !front_failures)
          (List.rev rep.batch);
        rep.batch <- [];
        rep.assigned <- 0;
        retire rep ~hooks:false;
        rep.oom <- Some reason;
        if Lifecycle.state rep.lc <> Down then
          Lifecycle.transition rep.lc ~now Down;
        rep.pending_restart <- None;
        rep.restart_at <-
          (if relaunch && not rep.dead_forever then now +. restart_delay
           else Float.nan)
      in
      (* Begin a relaunch for a Down replica right now; the worker
         builds the new process during the next round. *)
      let begin_restart rep ~now =
        Lifecycle.transition rep.lc ~now Restarting;
        rep.restart_error <- None;
        (* The death reason dies with the relaunch, or [handle_deaths]
           would mistake the stale marker for a fresh worker death and
           kill the new process at its first barrier. *)
        rep.oom <- None;
        rep.pending_restart <-
          Some
            { ro_heap_bytes = rep.heap_bytes;
              ro_seed = replica_seed rep.idx rep.lc.Lifecycle.restarts;
              ro_begun = now };
        rep.restart_at <- Float.nan
      in
      (* Apply one chaos firing. We are between dispatch and the round,
         so a crash takes the freshly dispatched batch down with it. *)
      let apply_firing (f : Chaos.firing) =
        incr chaos_events;
        match f.Chaos.f_cls with
        | Fault.Flash_crowd -> ()  (* consumed at arrival generation *)
        | Fault.Replica_stall ->
          let rep = replicas.(f.f_replica) in
          if rep.eng <> None then
            rep.stall <- Some (f.f_start, f.f_end, f.f_factor)
        | Fault.Replica_crash ->
          let rep = replicas.(f.f_replica) in
          if rep.eng <> None then
            kill rep ~now:f.f_start ~reason:"chaos: replica crash"
              ~relaunch:auto_restart
        | Fault.Heap_shrink ->
          let rep = replicas.(f.f_replica) in
          rep.heap_bytes <-
            max (1 lsl 16)
              (int_of_float (f.f_factor *. Float.of_int rep.heap_bytes));
          if rep.eng <> None then
            (* An operational resize is a controlled rolling restart:
               always relaunched, even with auto-restart off. *)
            kill rep ~now:f.f_start ~reason:"chaos: heap shrink"
              ~relaunch:true
          else if Float.is_nan rep.restart_at && auto_restart then
            rep.restart_at <- f.f_start +. restart_delay
      in
      (* One worker round on one replica: execute a pending relaunch, or
         serve the batch in arrival order. Latency is end-to-end against
         the request's first fleet arrival; queueing is the wait before
         service start against this copy's dispatch time. *)
      let run_replica_round rep =
        match rep.pending_restart with
        | Some order -> (
          match
            build_engine ~heap_bytes:order.ro_heap_bytes ~seed:order.ro_seed
          with
          | Ok e ->
            rep.eng <- Some e;
            rep.offset <- order.ro_begun;
            rep.activated <- true
          | Error msg -> rep.restart_error <- Some msg)
        | None -> (
          match rep.eng with
          | None -> ()
          | Some e ->
            let sim = Api.sim e.api in
            let batch = List.rev rep.batch in
            rep.batch <- [];
            let dead = ref None in
            List.iter
              (fun (rq, arrival, hedge) ->
                match !dead with
                | Some msg ->
                  rep.dropped <- rep.dropped + 1;
                  rep.results <-
                    { at_rq = rq; at_replica = rep.idx; at_hedge = hedge;
                      at_arrival = arrival; at_start = arrival;
                      at_outcome = Error msg }
                    :: rep.results
                | None -> (
                  let local_arrival = arrival -. rep.offset in
                  let start =
                    Float.max (Sim.now sim) local_arrival +. rep.offset
                  in
                  match Mut.serve e.server ~arrival:local_arrival with
                  | Ok completion ->
                    (* A stalled replica still serves, slower: the
                       antagonist charges extra compute proportional to
                       the observed service time. *)
                    let completion =
                      match rep.stall with
                      | Some (s, en, f)
                        when rep.offset +. completion >= s
                             && rep.offset +. completion < en ->
                        let svc =
                          Float.max 0.0 (rep.offset +. completion -. start)
                        in
                        Api.work e.api ~ns:((f -. 1.0) *. svc);
                        Api.safepoint e.api;
                        Sim.now sim
                      | _ -> completion
                    in
                    let completion = rep.offset +. completion in
                    rep.copies <- rep.copies + 1;
                    rep.busy_ns <- rep.busy_ns +. (completion -. start);
                    rep.results <-
                      { at_rq = rq; at_replica = rep.idx; at_hedge = hedge;
                        at_arrival = arrival; at_start = start;
                        at_outcome = Ok completion }
                      :: rep.results
                  | Error msg ->
                    dead := Some msg;
                    rep.oom <- Some msg;
                    rep.dropped <- rep.dropped + 1;
                    rep.results <-
                      { at_rq = rq; at_replica = rep.idx; at_hedge = hedge;
                        at_arrival = arrival; at_start = arrival;
                        at_outcome = Error msg }
                      :: rep.results))
              batch)
      in
      (* Settle every copy that resolved this window. Copies of one
         request always resolve at the same barrier (dispatch and
         service share a window), so grouping here is complete: the
         earliest completion wins -- and is attributed to the replica
         that produced it -- hedged losers are wasted work, and a
         request whose copies all failed enters the retry path once. *)
      let settle ~window_end =
        let by_rq : (int, attempt list ref) Hashtbl.t = Hashtbl.create 64 in
        let order = ref [] in
        let feed (a : attempt) =
          match Hashtbl.find_opt by_rq a.at_rq.id with
          | Some cell -> cell := a :: !cell
          | None ->
            Hashtbl.add by_rq a.at_rq.id (ref [ a ]);
            order := a.at_rq :: !order
        in
        Array.iter
          (fun rep ->
            List.iter feed (List.rev rep.results);
            rep.results <- [])
          replicas;
        List.iter feed (List.rev !front_failures);
        front_failures := [];
        List.iter
          (fun rq ->
            let attempts = List.rev !(Hashtbl.find by_rq rq.id) in
            let winner =
              List.fold_left
                (fun acc a ->
                  match a.at_outcome with
                  | Error _ -> acc
                  | Ok c -> (
                    match acc with
                    | Some (c', _) when c' <= c -> acc
                    | _ -> Some (c, a)))
                None attempts
            in
            match winner with
            | Some (completion, a) ->
              if not rq.settled then begin
                settle_terminal rq `Completed;
                if a.at_hedge then incr hedge_wins;
                let lat = Float.max 1.0 (completion -. rq.orig_arrival) in
                (match cfg.retry.Policy.Retry.timeout_ns with
                | Some t when lat > t -> incr timeouts
                | _ -> ());
                (match slo_mon with
                | Some m -> Slo.observe m ~latency_ns:lat
                | None -> ());
                let rep = replicas.(a.at_replica) in
                rep.served <- rep.served + 1;
                Histogram.record rep.latency (int_of_float lat);
                Histogram.record rep.queueing
                  (int_of_float (Float.max 1.0 (a.at_start -. a.at_arrival)))
              end
            | None -> fail_copy rq ~now:window_end `Dropped)
          (List.rev !order)
      in
      (* Re-snapshot the front-end's frozen view of every replica. *)
      let refresh ~window_end =
        Array.iter
          (fun rep ->
            (match rep.eng with
            | Some e ->
              rep.avail <- rep.offset +. Sim.now (Api.sim e.api);
              rep.signal <- Api.gc_signal e.api
            | None -> ());
            rep.assigned <- 0;
            let round_copies = rep.copies - rep.barrier_copies in
            if round_copies > 0 then begin
              let round_mean =
                (rep.busy_ns -. rep.barrier_busy)
                /. Float.of_int round_copies
              in
              rep.est_service <-
                (0.7 *. rep.est_service) +. (0.3 *. round_mean)
            end;
            rep.barrier_busy <- rep.busy_ns;
            rep.barrier_copies <- rep.copies;
            match rep.stall with
            | Some (_, e, _) when e <= window_end -> rep.stall <- None
            | _ -> ())
          replicas
      in
      (* A replica whose worker hit allocation-ladder exhaustion this
         round dies at the barrier: in resilient mode that is a
         lifecycle event (relaunch scheduled); otherwise it stays down
         and the run reports the failure. *)
      let handle_deaths ~window_end =
        Array.iter
          (fun rep ->
            match (rep.eng, rep.oom) with
            | Some _, Some reason ->
              kill rep ~now:window_end ~reason
                ~relaunch:(resilient && auto_restart)
            | _ -> ())
          replicas
      in
      (* Walk the lifecycle graph at the barrier: warm-up ramps finish,
         drained replicas retire cleanly, completed relaunches enter
         their slow start. *)
      let advance_lifecycles ~window_end =
        Array.iter
          (fun rep ->
            Lifecycle.tick_round rep.lc;
            match Lifecycle.state rep.lc with
            | Lifecycle.Warming ->
              if rep.lc.Lifecycle.rounds_in_state >= ramp_rounds then
                Lifecycle.transition rep.lc ~now:window_end Serving
            | Lifecycle.Serving -> ()
            | Lifecycle.Draining ->
              (* Batches drain within their round, so one round in
                 Draining suffices: retire with clean-shutdown hooks. *)
              retire rep ~hooks:true;
              Lifecycle.transition rep.lc ~now:window_end Down;
              rep.restart_at <- Float.nan
            | Lifecycle.Restarting -> (
              if rep.eng <> None then begin
                rep.pending_restart <- None;
                rep.oom <- None;
                rep.est_service <- service_wall;
                Lifecycle.transition rep.lc ~now:window_end Warming
              end
              else
                match rep.restart_error with
                | Some msg ->
                  rep.pending_restart <- None;
                  rep.oom <- Some msg;
                  rep.dead_forever <- true;
                  Lifecycle.transition rep.lc ~now:window_end Down;
                  rep.restart_at <- Float.nan
                | None -> ())
            | Lifecycle.Down -> ())
          replicas
      in
      let autoscale_act ~window_end ~burn =
        match scaler with
        | None -> ()
        | Some sc ->
          let active =
            Array.fold_left
              (fun acc rep ->
                match Lifecycle.state rep.lc with
                | Lifecycle.Warming | Lifecycle.Serving
                | Lifecycle.Restarting -> acc + 1
                | _ -> acc)
              0 replicas
          in
          (match Slo.Autoscale.tick sc ~burn ~active with
          | `Hold -> ()
          | `Up -> (
            let slot = ref None in
            Array.iter
              (fun rep ->
                if
                  !slot = None
                  && Lifecycle.state rep.lc = Lifecycle.Down
                  && not rep.dead_forever
                then slot := Some rep)
              replicas;
            match !slot with
            | Some rep ->
              incr scale_ups;
              begin_restart rep ~now:window_end
            | None -> ())
          | `Down ->
            let victim = ref None in
            Array.iter
              (fun rep -> if routable rep then victim := Some rep)
              replicas;
            (match !victim with
            | Some rep ->
              incr scale_downs;
              Lifecycle.transition rep.lc ~now:window_end Draining
            | None -> ()))
      in
      (* The fleet can still make progress as long as something is
         routable, relaunching, or scheduled to relaunch. *)
      let hopeless () =
        Array.for_all
          (fun rep ->
            (not (routable rep))
            && Lifecycle.state rep.lc <> Lifecycle.Restarting
            && rep.pending_restart = None
            && Float.is_nan rep.restart_at)
          replicas
      in
      let n = cfg.requests in
      let i = ref 0 in
      let t = ref t0 in
      while (!i < n || !retry_q <> []) && not (hopeless ()) do
        let window_start = !t in
        let window_end = !t +. quantum in
        (* Scheduled relaunches begin at the window head. *)
        Array.iter
          (fun rep ->
            if
              Lifecycle.state rep.lc = Lifecycle.Down
              && (not (Float.is_nan rep.restart_at))
              && rep.restart_at <= window_start
            then begin_restart rep ~now:window_start)
          replicas;
        (* Dispatch fresh arrivals and due retries in time order. *)
        let events = ref [] in
        while !i < n && arrivals.(!i) < window_end do
          events := (arrivals.(!i), requests.(!i), true) :: !events;
          incr i
        done;
        let due, rest =
          List.partition (fun (d, _) -> d < window_end) !retry_q
        in
        retry_q := rest;
        List.iter
          (fun (d, rq) ->
            events := (Float.max d window_start, rq, false) :: !events)
          due;
        let events =
          List.sort
            (fun (t1, r1, _) (t2, r2, _) ->
              match compare t1 t2 with
              | 0 -> compare r1.id r2.id
              | c -> c)
            !events
        in
        List.iter (fun (at, rq, fresh) -> dispatch rq ~arrival:at ~fresh)
          events;
        (* Chaos firings quantized to this checkpoint, after dispatch:
           a crash takes the fresh batch with it. *)
        List.iter apply_firing (Chaos.due schedule ~until:window_end);
        (* Parallel replica rounds, then the barrier. *)
        parallel_over pool slots (fun j -> run_replica_round replicas.(j));
        settle ~window_end;
        handle_deaths ~window_end;
        refresh ~window_end;
        advance_lifecycles ~window_end;
        let burn =
          match slo_mon with
          | Some m ->
            Slo.tick m ~now:window_end;
            Slo.burn m
          | None -> 0.0
        in
        (* Publish the window's burn while the replicas are quiescent
           (between parallel rounds), so a controller factory reading it
           from inside replica engines sees a value frozen for the whole
           next round — deterministic across --domains. *)
        (match cfg.on_burn with Some f -> f burn | None -> ());
        autoscale_act ~window_end ~burn;
        t := window_end;
        (* Fast-forward over empty quanta so lightly-loaded fleets do
           not spin through windows with nothing to schedule -- but only
           when no replica is mid-transition (drain, relaunch). *)
        let quiescent =
          Array.for_all
            (fun rep ->
              rep.pending_restart = None
              &&
              match Lifecycle.state rep.lc with
              | Lifecycle.Draining | Lifecycle.Restarting -> false
              | _ -> true)
            replicas
        in
        if quiescent then begin
          let next_event =
            let a = if !i < n then arrivals.(!i) else Float.infinity in
            let r =
              List.fold_left
                (fun m (d, _) -> Float.min m d)
                Float.infinity !retry_q
            in
            let s =
              Array.fold_left
                (fun m rep ->
                  if Float.is_nan rep.restart_at then m
                  else Float.min m rep.restart_at)
                Float.infinity replicas
            in
            Float.min a (Float.min r s)
          in
          if next_event < Float.infinity && next_event >= !t +. quantum then
            t :=
              !t
              +. quantum
                 *. Float.of_int
                      (int_of_float ((next_event -. !t) /. quantum))
        end
      done;
      (* Anything still unrouted when the fleet went dark. *)
      while !i < n do
        settle_terminal requests.(!i) `Dropped;
        incr i
      done;
      List.iter (fun (_, rq) -> settle_terminal rq `Dropped) !retry_q;
      retry_q := [];
      (* Wind down: final collector hooks and end-of-run verification,
         still replica-parallel; then fold the survivors' counters. *)
      parallel_over pool slots (fun j ->
          let rep = replicas.(j) in
          match rep.eng with
          | Some e ->
            if rep.oom = None then Mut.server_finish e.server;
            (match e.verifier with
            | Some v -> Verifier.finish v
            | None -> ())
          | None -> ());
      Array.iter (fun rep -> retire rep ~hooks:false) replicas;
      let wall_end =
        Array.fold_left
          (fun acc rep ->
            if rep.activated then Float.max acc rep.avail else acc)
          t0 replicas
      in
      let wall_ns = wall_end -. t0 in
      Array.iter (fun rep -> Lifecycle.finish rep.lc ~now:wall_end) replicas;
      let latency = Histogram.create () in
      let queueing = Histogram.create () in
      Array.iter
        (fun rep ->
          Histogram.merge ~into:latency rep.latency;
          Histogram.merge ~into:queueing rep.queueing)
        replicas;
      let verifier_checks =
        Array.fold_left (fun acc rep -> acc + rep.acc_checks) 0 replicas
      in
      let violations =
        Array.fold_left (fun acc rep -> acc + rep.acc_violations) 0 replicas
      in
      let fleet_ladder =
        let total : Api.ladder_counts =
          { young_collections = 0; full_collections = 0;
            emergency_compactions = 0; reserve_releases = 0;
            exhaustions = 0 }
        in
        Array.iter (fun rep -> add_ladder total rep.acc_ladder) replicas;
        Api.ladder_alist total
      in
      let first_oom =
        Array.to_seq replicas
        |> Seq.filter_map (fun rep ->
               Option.map
                 (fun msg -> Printf.sprintf "replica %d: %s" rep.idx msg)
                 rep.oom)
        |> Seq.uncons
      in
      let error =
        match first_oom with
        | Some (msg, _) when not resilient -> Some ("out of memory: " ^ msg)
        | _ ->
          if violations > 0 then
            Some (Printf.sprintf "%d integrity violations" violations)
          else None
      in
      let availability =
        if n = 0 then 1.0
        else Float.of_int (!completed - !timeouts) /. Float.of_int n
      in
      let per_replica =
        Array.to_list replicas
        |> List.filter (fun rep -> rep.activated)
        |> List.map (fun rep ->
               { r_index = rep.idx;
                 r_served = rep.served;
                 r_dropped = rep.dropped;
                 r_latency = rep.latency;
                 r_queueing = rep.queueing;
                 r_busy_ns = rep.busy_ns;
                 r_wall_ns = rep.avail -. t0;
                 r_utilization =
                   (if wall_ns > 0.0 then rep.busy_ns /. wall_ns else 0.0);
                 r_pause_count = rep.acc_pause_count;
                 r_pauses = rep.acc_pauses;
                 r_gc_cpu_ns = rep.acc_gc_cpu;
                 r_mutator_cpu_ns = rep.acc_mut_cpu;
                 r_oom = rep.oom;
                 r_state = Lifecycle.state_name (Lifecycle.state rep.lc);
                 r_restarts = rep.lc.Lifecycle.restarts;
                 r_time_in = Lifecycle.time_in_alist rep.lc;
                 r_ladder = Api.ladder_alist rep.acc_ladder;
                 r_wb_fast = rep.acc_wb_fast;
                 r_wb_slow = rep.acc_wb_slow })
      in
      { workload = w.name;
        collector = collector_name;
        policy = cfg.policy;
        replicas = cfg.replicas;
        domains = cfg.domains;
        heap_factor = cfg.heap_factor;
        ok = error = None;
        error;
        requests = n;
        completed = !completed;
        rejected = !rejected;
        dropped = !dropped;
        shed = !shed;
        timeouts = !timeouts;
        retries = !retries;
        hedges = !hedges;
        hedge_wins = !hedge_wins;
        wall_ns;
        latency;
        queueing;
        diversions = !diversions;
        availability;
        chaos_events = !chaos_events;
        scale_ups = !scale_ups;
        scale_downs = !scale_downs;
        slo_peak_burn =
          (match slo_mon with Some m -> Slo.peak_burn m | None -> 0.0);
        slo_breach_rounds =
          (match slo_mon with Some m -> Slo.breach_rounds m | None -> 0);
        slo_shed_rounds =
          (match slo_mon with Some m -> Slo.shed_rounds m | None -> 0);
        slo_timeline =
          (match slo_mon with Some m -> Slo.timeline m | None -> []);
        ladder = fleet_ladder;
        wb_fast =
          Array.fold_left (fun a rep -> a +. rep.acc_wb_fast) 0.0 replicas;
        wb_slow =
          Array.fold_left (fun a rep -> a +. rep.acc_wb_slow) 0.0 replicas;
        verifier_checks;
        violations;
        per_replica })
