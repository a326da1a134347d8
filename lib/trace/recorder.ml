open Repro_engine

type t = {
  mutable workload : string;
  mutable collector : string;
  seed : int;
  scale : float;
  heap_factor : float;
  cfg : Repro_heap.Heap_config.t;
  events : Buffer.t;
  mutable count : int;
}

let create ?(collector = "?") ~workload ~seed ~scale ~heap_factor ~cfg () =
  { workload;
    collector;
    seed;
    scale;
    heap_factor;
    cfg;
    events = Buffer.create (64 * 1024);
    count = 0 }

let set_collector t name = t.collector <- name

let emit t ev =
  Trace_format.encode_event t.events ev;
  t.count <- t.count + 1

let tracer t =
  { Tracer.alloc =
      (fun ~id ~size ~nfields ~large ->
        emit t (Trace_format.Alloc { id; size; nfields; large }));
    alloc_failed =
      (fun ~size ~nfields -> emit t (Trace_format.Alloc_failed { size; nfields }));
    write =
      (fun ~src ~field ~value -> emit t (Trace_format.Write { src; field; value }));
    read = (fun ~src ~field -> emit t (Trace_format.Read { src; field }));
    root = (fun ~slot ~value -> emit t (Trace_format.Root { slot; value }));
    work = (fun ~ns -> emit t (Trace_format.Work { ns }));
    safepoint = (fun () -> emit t Trace_format.Safepoint);
    request_start =
      (fun ~gap -> emit t (Trace_format.Request_start { gap }));
    request_end = (fun () -> emit t Trace_format.Request_end);
    measurement_start = (fun () -> emit t Trace_format.Measurement_start);
    survived = (fun ~bytes -> emit t (Trace_format.Survived { bytes }));
    finish = (fun () -> emit t Trace_format.Finish) }

let contents t =
  let header =
    Trace_format.make_header ~workload:t.workload ~collector:t.collector
      ~seed:t.seed ~scale:t.scale ~heap_factor:t.heap_factor ~cfg:t.cfg
  in
  let header_buf = Buffer.create 64 in
  Trace_format.encode_header header_buf header;
  Trace_format.assemble ~header_buf ~events_buf:t.events ~count:t.count

let save t path = Trace_format.write_string_to_file (contents t) path
