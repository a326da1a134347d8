(* A parallel-for with deterministic ordered reduction.

   Parallelism lives entirely between [f] calls on distinct packet
   indices; every effect on shared state happens in [merge], applied
   serially in ascending packet order on the submitting domain, so the
   observable result is independent of how many workers happened to
   execute the packets — including zero (inline). *)

module Vec = Repro_util.Vec

type job = {
  body : int -> unit;  (* run one packet; must trap its own exceptions *)
  packets : int;
  next : int Atomic.t;  (* next unclaimed packet index *)
  unfinished : int Atomic.t;  (* packets not yet completed *)
}

module Pool = struct
  type t = {
    threads : int;
    mutable domains : unit Domain.t array;
    mutex : Mutex.t;
    work : Condition.t;  (* workers wait for a new job generation *)
    idle : Condition.t;  (* submitter waits for unfinished = 0 *)
    mutable job : job option;
    mutable generation : int;
    mutable stop : bool;
    busy : bool Atomic.t;  (* a run is in flight: nested runs go inline *)
  }

  let threads t = t.threads
  let workers t = Array.length t.domains

  let drain (j : job) =
    let rec loop () =
      let i = Atomic.fetch_and_add j.next 1 in
      if i < j.packets then begin
        j.body i;
        Atomic.decr j.unfinished;
        loop ()
      end
    in
    loop ()

  let worker t =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock t.mutex;
      while (not t.stop) && t.generation = !seen do
        Condition.wait t.work t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        seen := t.generation;
        let j = t.job in
        Mutex.unlock t.mutex;
        (match j with
        | Some j ->
          drain j;
          (* The submitter participates too and may be the one to finish
             the last packet; it re-checks [unfinished] under the mutex,
             so a signal is only needed when we completed work. *)
          Mutex.lock t.mutex;
          if Atomic.get j.unfinished = 0 then Condition.signal t.idle;
          Mutex.unlock t.mutex
        | None -> ());
        loop ()
      end
    in
    loop ()

  let create ?(force_spawn = false) ~threads () =
    if threads < 1 || threads > 64 then invalid_arg "Par.Pool.create: threads";
    let t =
      { threads;
        domains = [||];
        mutex = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        job = None;
        generation = 0;
        stop = false;
        busy = Atomic.make false }
    in
    let avail = Domain.recommended_domain_count () - 1 in
    let spawn = if force_spawn then threads - 1 else min (threads - 1) (max 0 avail) in
    t.domains <- Array.init spawn (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||]

  let serial = create ~threads:1 ()

  (* Process-wide pool cache: repeated fleet runs reuse domains. *)
  let cache : (int, t) Hashtbl.t = Hashtbl.create 4
  let cache_mutex = Mutex.create ()
  let exit_hooked = ref false

  let get ~threads =
    if threads = 1 then serial
    else begin
      Mutex.lock cache_mutex;
      let t =
        match Hashtbl.find_opt cache threads with
        | Some t -> t
        | None ->
          let t = create ~threads () in
          Hashtbl.add cache threads t;
          if (not !exit_hooked) && workers t > 0 then begin
            exit_hooked := true;
            at_exit (fun () ->
                Mutex.lock cache_mutex;
                let pools = Hashtbl.fold (fun _ p acc -> p :: acc) cache [] in
                Hashtbl.reset cache;
                Mutex.unlock cache_mutex;
                List.iter shutdown pools)
          end;
          t
      in
      Mutex.unlock cache_mutex;
      t
    end

  let run_inline ~packets body =
    for i = 0 to packets - 1 do
      body i
    done

  (* Execute [body 0 .. body (packets-1)] using the pool's workers, the
     submitter included. Completion order is arbitrary; determinism is
     the caller's ordered merge. *)
  let run t ~packets body =
    if packets > 0 then
      if
        Array.length t.domains = 0
        || packets = 1
        || not (Atomic.compare_and_set t.busy false true)
      then run_inline ~packets body
      else begin
        let j =
          { body; packets; next = Atomic.make 0; unfinished = Atomic.make packets }
        in
        Mutex.lock t.mutex;
        t.job <- Some j;
        t.generation <- t.generation + 1;
        Condition.broadcast t.work;
        Mutex.unlock t.mutex;
        drain j;
        Mutex.lock t.mutex;
        while Atomic.get j.unfinished > 0 do
          Condition.wait t.idle t.mutex
        done;
        t.job <- None;
        Mutex.unlock t.mutex;
        Atomic.set t.busy false
      end
end

(* Recycled scratch buffers. A collector pause takes its work queues
   here and hands them back when it ends, so steady-state pauses
   allocate none. Contents are always fully rewritten ([take] clears),
   so recycling cannot affect results. The free list is shared across
   domains (fleet replicas collect on worker domains); the lock is per
   take/recycle, far off the per-element path. *)
let scratch_lock = Mutex.create ()
let scratch_free : Vec.t list ref = ref []

let take_scratch () =
  Mutex.lock scratch_lock;
  let v =
    match !scratch_free with
    | v :: rest ->
      scratch_free := rest;
      Vec.clear v;
      v
    | [] -> Vec.create ~capacity:256 ()
  in
  Mutex.unlock scratch_lock;
  v

let recycle_scratch v =
  Mutex.lock scratch_lock;
  scratch_free := v :: !scratch_free;
  Mutex.unlock scratch_lock

let map_merge pool ~packets ~f ~merge =
  if packets < 0 then invalid_arg "Par.map_merge: packets";
  if packets > 0 then begin
    if Pool.workers pool = 0 || packets = 1 then
      (* Inline fast path: no result buffering, same order. *)
      for i = 0 to packets - 1 do
        merge i (f i)
      done
    else begin
      let results = Array.make packets None in
      Pool.run pool ~packets (fun i ->
          results.(i) <-
            Some (match f i with v -> Ok v | exception e -> Error e));
      for i = 0 to packets - 1 do
        match results.(i) with
        | Some (Ok v) -> merge i v
        | Some (Error e) -> raise e
        | None -> assert false
      done
    end
  end
