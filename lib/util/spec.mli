(** The one grammar for command-line specs and name lookups: every flag
    spec ([--inject], [--verify], [--lxr-knob], [--controller],
    [--chaos], [--retry], [--slo], [--autoscale]) and every name lookup
    (collectors, benchmarks, policies, experiments, knobs, formats)
    parses through here. Every reader returns [result] so the front ends
    die with one message, unknown names carry {!Suggest} did-you-mean
    hints, and the number readers refuse NaN everywhere and an infinity
    wherever a finite bound applies. Names and keys match
    case-insensitively. A spec parser's errors name the key and value but
    not the spec: the front end prefixes its flag, once. *)

(** Comma-split, trimmed, empties removed. *)
val items : string -> string list

(** Error-short-circuiting fold over {!items}. *)
val fold_items :
  f:('a -> string -> ('a, string) result) -> 'a -> string -> ('a, string) result

(** [kv ~sep "key<sep>value"] splits on the first [sep], key lowercased;
    [None] when there is no [sep]. *)
val kv : sep:char -> string -> (string * string) option

(** [choose ~what table name] is the value [name] maps to in [table],
    or [Error "unknown <what> \"name\" (did you mean ...?); known: <keys>"]. *)
val choose : what:string -> (string * 'a) list -> string -> ('a, string) result

(** [unknown_key ~known key] is
    [Error "unknown key \"key\" (did you mean ...?); known: ..."]. *)
val unknown_key : known:string list -> string -> ('a, string) result

(** [malformed ~what ~form ~known item] rejects an item that lacks its
    separator: [Error "<what> \"item\": expected <form>"], with a hint
    over [known] when the item looks like a misspelled key. *)
val malformed :
  what:string -> form:string -> known:string list -> string -> ('a, string) result

(** true/1/on/yes or false/0/off/no. *)
val bool : what:string -> string -> (bool, string) result

(** [float_in ~what ~lo ~hi s] — a number in [\[lo, hi\]]. An
    out-of-range error prints the range as [\[lo, hi\]], or as [>= lo]
    when [hi] is at least [max_float]. *)
val float_in :
  what:string -> lo:float -> hi:float -> string -> (float, string) result

(** [float_min ~what ~lo s] — a number [>= lo]; [+inf] passes. *)
val float_min : what:string -> lo:float -> string -> (float, string) result

(** [int_in ~what ~lo ~hi s] — an integer in [\[lo, hi\]]; the range
    prints as [>= lo] when [hi] is [max_int]. *)
val int_in :
  what:string -> lo:int -> hi:int -> string -> (int, string) result

(** [duration ~what "250us"] — a simulated-time span in ns; accepts
    ns/us/ms/s suffixes (default ns). Rejects negatives and NaN. *)
val duration : what:string -> string -> (float, string) result
