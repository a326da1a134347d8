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

let tracer t ev =
  Trace_format.encode_event t.events ev;
  t.count <- t.count + 1

let contents t =
  let header =
    Trace_format.make_header ~workload:t.workload ~collector:t.collector
      ~seed:t.seed ~scale:t.scale ~heap_factor:t.heap_factor ~cfg:t.cfg
  in
  let header_buf = Buffer.create 64 in
  Trace_format.encode_header header_buf header;
  Trace_format.assemble ~header_buf ~events_buf:t.events ~count:t.count

let save t path = Trace_format.write_string_to_file (contents t) path
