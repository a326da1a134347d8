(* A unit parallel-for over a domain pool.

   Packets run in any order on any lane; the caller's packet bodies
   touch disjoint state, so the observable result is independent of how
   many workers happened to execute them, including zero (inline). An
   exception is trapped per packet and the lowest-index one is re-raised
   once every packet has run, on every path. *)

type job = {
  body : int -> unit;
  packets : int;
  next : int Atomic.t;  (* next unclaimed packet index *)
  unfinished : int Atomic.t;  (* packets not yet completed *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-index exception so far; written under the pool mutex *)
}

let sentinel () =
  { body = ignore;
    packets = 0;
    next = Atomic.make 0;
    unfinished = Atomic.make 0;
    failure = None }

(* The slot holds [idle] between runs, so a finished job's closure is
   not kept alive, and [stop] once the pool shuts down. *)
let idle = sentinel ()
let stop = sentinel ()

(* How many [Domain.cpu_relax] a waiting worker or submitter spins
   before it blocks on its condvar: about 0.12 ms at the ~30 ns one
   relax takes on a 2-vCPU Xeon VM. On the ledger's fleet config about
   97% of the gaps between two multi-packet jobs are shorter, so most
   handoffs complete while the other side still spins and no thread
   sleeps or needs a wake-up; a longer spin would mostly burn the core
   through the rare long gap. *)
let spin_limit = 4_000

module Pool = struct
  type t = {
    mutable domains : unit Domain.t array;
    mutex : Mutex.t;
    work : Condition.t;  (* parked workers wait for a new job *)
    finished : Condition.t;  (* a parked submitter waits for unfinished = 0 *)
    current : job Atomic.t;  (* the published job, [idle] or [stop] *)
    sleepers : int Atomic.t;  (* workers parked on [work] *)
    waiting : bool Atomic.t;  (* the submitter is parked on [finished] *)
    busy : bool Atomic.t;  (* a run is in flight: nested runs go inline *)
  }

  let workers t = Array.length t.domains

  let note_failure t j i e bt =
    Mutex.lock t.mutex;
    (match j.failure with
    | Some (k, _, _) when k < i -> ()
    | _ -> j.failure <- Some (i, e, bt));
    Mutex.unlock t.mutex

  (* Claim and run packets until none is left. Whoever completes the
     last packet wakes the submitter if, and only if, it has parked. *)
  let drain t j =
    let rec loop () =
      let i = Atomic.fetch_and_add j.next 1 in
      if i < j.packets then begin
        (match j.body i with
        | () -> ()
        | exception e -> note_failure t j i e (Printexc.get_raw_backtrace ()));
        if Atomic.fetch_and_add j.unfinished (-1) = 1 && Atomic.get t.waiting
        then begin
          Mutex.lock t.mutex;
          Condition.signal t.finished;
          Mutex.unlock t.mutex
        end;
        loop ()
      end
    in
    loop ()

  (* The next job other than [last]: spin on the slot, then park. A
     worker counts itself in [sleepers] under the mutex before its last
     check, and a submitter reads [sleepers] after it publishes, so
     either the worker sees the job or the submitter sees the sleeper. *)
  let await t last =
    let fresh j = j != last && j != idle in
    let rec spin n =
      let j = Atomic.get t.current in
      if fresh j then j
      else if n > 0 then begin
        Domain.cpu_relax ();
        spin (n - 1)
      end
      else begin
        Mutex.lock t.mutex;
        Atomic.incr t.sleepers;
        let rec park () =
          let j = Atomic.get t.current in
          if fresh j then j
          else begin
            Condition.wait t.work t.mutex;
            park ()
          end
        in
        let j = park () in
        Atomic.decr t.sleepers;
        Mutex.unlock t.mutex;
        j
      end
    in
    spin spin_limit

  let worker t =
    let rec loop last =
      let j = await t last in
      if j != stop then begin
        drain t j;
        loop j
      end
    in
    loop idle

  (* The submitter's wait for the job's last packet, by the same
     spin-then-park protocol over [waiting] and [unfinished]. *)
  let await_done t j =
    let rec spin n =
      if Atomic.get j.unfinished > 0 then
        if n > 0 then begin
          Domain.cpu_relax ();
          spin (n - 1)
        end
        else begin
          Mutex.lock t.mutex;
          Atomic.set t.waiting true;
          while Atomic.get j.unfinished > 0 do
            Condition.wait t.finished t.mutex
          done;
          Atomic.set t.waiting false;
          Mutex.unlock t.mutex
        end
    in
    spin spin_limit

  let create ?(force_spawn = false) ~threads () =
    if threads < 1 || threads > 64 then invalid_arg "Par.Pool.create: threads";
    let t =
      { domains = [||];
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        current = Atomic.make idle;
        sleepers = Atomic.make 0;
        waiting = Atomic.make false;
        busy = Atomic.make false }
    in
    let avail = Domain.recommended_domain_count () - 1 in
    let spawn = if force_spawn then threads - 1 else min (threads - 1) (max 0 avail) in
    t.domains <- Array.init spawn (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let shutdown t =
    Atomic.set t.current stop;
    Mutex.lock t.mutex;
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
end

let run_inline ~packets body =
  let failure = ref None in
  for i = 0 to packets - 1 do
    match body i with
    | () -> ()
    | exception e ->
      if Option.is_none !failure then
        failure := Some (e, Printexc.get_raw_backtrace ())
  done;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure

let parallel_for (pool : Pool.t) ~packets body =
  if packets < 0 then invalid_arg "Par.parallel_for: packets";
  if
    Pool.workers pool = 0 || packets <= 1
    || not (Atomic.compare_and_set pool.busy false true)
  then run_inline ~packets body
  else begin
    let j =
      { body;
        packets;
        next = Atomic.make 0;
        unfinished = Atomic.make packets;
        failure = None }
    in
    Atomic.set pool.current j;
    if Atomic.get pool.sleepers > 0 then begin
      Mutex.lock pool.mutex;
      Condition.broadcast pool.work;
      Mutex.unlock pool.mutex
    end;
    Pool.drain pool j;
    Pool.await_done pool j;
    Atomic.set pool.current idle;
    Atomic.set pool.busy false;
    match j.failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
