type event =
  | Alloc of { id : int; size : int; nfields : int; large : bool }
  | Alloc_failed of { size : int; nfields : int }
  | Write of { src : int; field : int; value : int }
  | Read of { src : int; field : int }
  | Root of { slot : int; value : int }
  | Work of { ns : float }
  | Safepoint
  | Request_start of { gap : float }
  | Request_end
  | Measurement_start
  | Survived of { bytes : int }
  | Finish

type t = event -> unit

let none : t = fun _ -> ()

(* Physical equality, same trick as [Fault.active]: emit sites test this
   before building an event. *)
let active t = t != none

let name = function
  | Alloc _ -> "alloc"
  | Alloc_failed _ -> "alloc-failed"
  | Write _ -> "write"
  | Read _ -> "read"
  | Root _ -> "root"
  | Work _ -> "work"
  | Safepoint -> "safepoint"
  | Request_start _ -> "request-start"
  | Request_end -> "request-end"
  | Measurement_start -> "measurement-start"
  | Survived _ -> "survived"
  | Finish -> "finish"
