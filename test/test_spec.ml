(* One table over every spec grammar and name lookup the front ends
   parse through Repro_util.Spec: NaN where a number goes, inf where the
   range is finite, an empty value, a missing separator and a misspelled
   key or name must each come back as an Error that names the flag (once),
   the key and the value, and every misspelling must carry a did-you-mean
   hint. A fixed-budget seed for a spec-parser fuzzer. *)

open Repro_util

let check = Alcotest.(check bool)

let occurrences s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

let contains s sub = occurrences s sub > 0

let ignore_ok r = Result.map ignore r
let lookup find s = ignore_ok (find s)

(* The front ends prefix a spec parser's error with its flag (bin/cli.ml's
   parse_opt); Collector_set.resolve does the same for --lxr-knob and
   --controller. *)
let at_flag flag parse s =
  Result.map_error (Printf.sprintf "--%s: %s" flag) (ignore_ok (parse s))

let resolve_knob s =
  ignore_ok (Repro_harness.Collector_set.resolve ~knobs:[ s ] "lxr")

let resolve_controller s =
  ignore_ok (Repro_harness.Collector_set.resolve ~controller:s "lxr")

let hint = "did you mean"

(* (label, parser, [input, substrings its error must contain]) *)
let grammars =
  [ ( "--inject",
      at_flag "inject" (Repro_engine.Fault.of_spec ~seed:1),
      [ ("drop-barrier:nan", [ "--inject"; "drop-barrier"; "\"nan\"" ]);
        ("drop-barrier:inf", [ "--inject"; "drop-barrier"; "\"inf\"" ]);
        ("drop-barrier:", [ "--inject"; "drop-barrier"; "\"\"" ]);
        ("drop-barrier", [ "--inject"; "\"drop-barrier\""; "class:rate" ]);
        ("drop-barier:0.1", [ "--inject"; "\"drop-barier\""; hint ]) ] );
    ( "--lxr-knob",
      resolve_knob,
      [ ("wastage_threshold=nan", [ "--lxr-knob"; "wastage_threshold"; "\"nan\"" ]);
        ("wastage_threshold=inf", [ "--lxr-knob"; "wastage_threshold"; "\"inf\"" ]);
        ("max_evac_targets=", [ "--lxr-knob"; "max_evac_targets"; "\"\"" ]);
        ("evacuate_young=", [ "--lxr-knob"; "evacuate_young"; "\"\"" ]);
        ("wastage_threshold", [ "--lxr-knob"; "\"wastage_threshold\""; "name=value" ]);
        ("wastage_treshold=0.1", [ "--lxr-knob"; "\"wastage_treshold\""; hint ]) ] );
    ( "--controller",
      resolve_controller,
      [ ("pid:kp=nan", [ "--controller"; "kp"; "\"nan\"" ]);
        ("hill:step=nan", [ "--controller"; "step"; "\"nan\"" ]);
        ("pid:target=nan", [ "--controller"; "target"; "\"nan\"" ]);
        ("pid:kd=inf", [ "--controller"; "kd"; "\"inf\"" ]);
        ("hill:step=inf", [ "--controller"; "step"; "\"inf\"" ]);
        ("hill:window=", [ "--controller"; "window"; "\"\"" ]);
        ("pid:kp", [ "--controller"; "\"kp\""; "key=value" ]);
        ("pid:kpp=1", [ "--controller"; "\"kpp\""; hint ]);
        ("hill:obj=cots", [ "--controller"; "\"cots\""; hint ]);
        ("hill:knobs=wastage_treshold", [ "--controller"; "\"wastage_treshold\""; hint ]);
        ("hilll", [ "--controller"; "\"hilll\""; hint ]) ] );
    ( "--verify",
      at_flag "verify" Repro_verify.Verifier.points_of_string,
      [ ("", [ "--verify"; "empty" ]); ("pre,pots", [ "--verify"; "\"pots\""; hint ]) ]
    );
    ( "--chaos",
      at_flag "chaos" Repro_service.Chaos.of_spec,
      [ ("crash@nan", [ "--chaos"; "@AT"; "\"nan\"" ]);
        ("crash@inf", [ "--chaos"; "@AT"; "\"inf\"" ]);
        ("stall@0.3+nan", [ "--chaos"; "+DUR"; "\"nan\"" ]);
        ("crash@0.3:rx", [ "--chaos"; ":rN"; "\"x\"" ]);
        ("warmup:inf", [ "--chaos"; "warmup"; "\"inf\"" ]);
        ("restart:", [ "--chaos"; "restart"; "\"\"" ]);
        ("warmup", [ "--chaos"; "\"warmup\""; "key:value" ]);
        ("crsh@0.3", [ "--chaos"; "\"crsh\""; hint ]);
        ("warmp:3", [ "--chaos"; "\"warmp\""; hint ]) ] );
    ( "--retry",
      at_flag "retry" Repro_service.Policy.Retry.of_spec,
      [ ("timeout:nan", [ "--retry"; "timeout"; "\"nan\"" ]);
        ("timeout:5ms,max:inf", [ "--retry"; "max"; "\"inf\"" ]);
        ("timeout:", [ "--retry"; "timeout"; "\"\"" ]);
        ("timeout", [ "--retry"; "\"timeout\""; "key:value" ]);
        ("timeout:5ms,mx:3", [ "--retry"; "\"mx\""; hint ]) ] );
    ( "--slo",
      at_flag "slo" Repro_service.Slo.of_spec,
      [ ("pnan:2ms", [ "--slo"; "percentile"; "\"nan\"" ]);
        ("p99.9:nan", [ "--slo"; "budget"; "\"nan\"" ]);
        ("p99.9:2ms,shed:nan", [ "--slo"; "shed"; "\"nan\"" ]);
        ("p99.9:2ms,shed:inf", [ "--slo"; "shed"; "\"inf\"" ]);
        ("p99.9:2ms,window:", [ "--slo"; "window"; "\"\"" ]);
        ("p99.9:2ms,window", [ "--slo"; "\"window\""; "key:value" ]);
        ("p99.9:2ms,windw:8", [ "--slo"; "\"windw\""; hint ]) ] );
    ( "--autoscale",
      at_flag "autoscale" Repro_service.Slo.Autoscale.of_spec,
      [ ("max:8,up:nan", [ "--autoscale"; "up"; "\"nan\"" ]);
        ("max:inf", [ "--autoscale"; "max"; "\"inf\"" ]);
        ("max:", [ "--autoscale"; "max"; "\"\"" ]);
        ("max", [ "--autoscale"; "\"max\""; "key:value" ]);
        ("mx:8", [ "--autoscale"; "\"mx\""; hint ]) ] );
    ( "policy names",
      lookup Repro_service.Policy.of_string,
      [ ("", [ "policy"; "\"\"" ]); ("gc-awre", [ "policy"; "\"gc-awre\""; hint ]) ] );
    ( "collector names",
      lookup Repro_harness.Collector_set.find,
      [ ("", [ "collector"; "\"\"" ]); ("journal_rk", [ "collector"; "\"journal_rk\""; hint ]) ]
    );
    ( "benchmark names",
      lookup Repro_harness.Collector_set.find_workload,
      [ ("", [ "benchmark"; "\"\"" ]); ("lusearh", [ "benchmark"; "\"lusearh\""; hint ]) ]
    ) ]

let test_grammar label parse cases () =
  List.iter
    (fun (input, wants) ->
      match parse input with
      | Ok () -> Alcotest.failf "%S parsed" input
      | Error msg ->
        List.iter
          (fun want ->
            check (Printf.sprintf "%S: %S names %S" input msg want) true
              (contains msg want))
          wants;
        (* The flag prefix is the only place the spec is named: a parser
           that names its own spec doubles it ("--retry: retry: ..."). *)
        if String.starts_with ~prefix:"--" label then
          let name = String.sub label 2 (String.length label - 2) in
          check (Printf.sprintf "%S names %S once" msg name) true
            (occurrences msg name = 1))
    cases

(* Whole messages: one flag prefix, and a range with only a lower bound
   printed as ">= lo". *)
let exact =
  [ (at_flag "retry" Repro_service.Policy.Retry.of_spec, "max:20",
     "--retry: max: 20 is out of range; expected [1, 16]");
    (at_flag "slo" Repro_service.Slo.of_spec, "p99:xx",
     "--slo: budget: bad duration \"xx\" (expected e.g. 250us, 2ms, 1.5e6)");
    (at_flag "chaos" Repro_service.Chaos.of_spec, "crash@0.3:r-1",
     "--chaos: :rN: -1 is out of range; expected >= 0");
    (at_flag "chaos" Repro_service.Chaos.of_spec, "heap-shrink@0.3x-1",
     "--chaos: xFACTOR: -1 is out of range; expected >= 0");
    (resolve_controller, "pid:target=-1",
     "--controller: target: -1 is out of range; expected >= 0");
    (resolve_controller, "pid:zz=1",
     "--controller: unknown key \"zz\" (did you mean \"kd\"?); known: obj, \
      seed, window, step, kp, ki, kd, target, knobs") ]

let test_exact () =
  List.iter
    (fun (parse, input, want) ->
      match parse input with
      | Ok () -> Alcotest.failf "%S parsed" input
      | Error msg -> Alcotest.(check string) input want msg)
    exact

(* The readers behind every grammar: NaN never parses, an infinity only
   where no finite bound applies, and finite values pass unchanged. *)
let test_readers () =
  let is_error = function Ok _ -> false | Error _ -> true in
  let what = "x" in
  check "float_in nan" true (is_error (Spec.float_in ~what ~lo:0.0 ~hi:1.0 "nan"));
  check "float_in inf" true (is_error (Spec.float_in ~what ~lo:0.0 ~hi:1.0 "inf"));
  check "float_in value" true (Spec.float_in ~what ~lo:0.0 ~hi:1.0 " 0.25 " = Ok 0.25);
  check "float_min nan" true (is_error (Spec.float_min ~what ~lo:0.0 "nan"));
  check "float_min -inf" true (is_error (Spec.float_min ~what ~lo:0.0 "-inf"));
  check "float_min +inf" true (Spec.float_min ~what ~lo:0.0 "inf" = Ok Float.infinity);
  check "duration nan" true (is_error (Spec.duration ~what "nan"));
  check "duration units" true (Spec.duration ~what "250us" = Ok 250_000.0);
  check "int_in" true (Spec.int_in ~what ~lo:1 ~hi:64 "0x10" = Ok 16);
  check "bool" true (Spec.bool ~what "YES" = Ok true && Spec.bool ~what "off" = Ok false);
  check "choose is case-insensitive" true
    (Spec.choose ~what [ ("gc-aware", 1) ] "GC-Aware" = Ok 1);
  check "kv splits on the first separator" true
    (Spec.kv ~sep:'=' "Knobs=a=b" = Some ("knobs", "a=b"));
  check "items" true (Spec.items " a, b,,c " = [ "a"; "b"; "c" ]);
  let lower_only = Error "x: -1 is out of range; expected >= 0" in
  check "int_in lower bound only" true
    (Spec.int_in ~what ~lo:0 ~hi:max_int "-1" = lower_only);
  check "float_in lower bound only" true
    (Spec.float_in ~what ~lo:0.0 ~hi:Float.max_float "-1" = lower_only);
  check "float_min" true (Spec.float_min ~what ~lo:0.0 "-1" = lower_only);
  check "int_in both bounds" true
    (Spec.int_in ~what ~lo:1 ~hi:16 "20"
    = Error "x: 20 is out of range; expected [1, 16]")

let suite =
  [ ( "spec",
      Alcotest.test_case "readers" `Quick test_readers
      :: Alcotest.test_case "whole messages" `Quick test_exact
      :: List.map
           (fun (label, parse, cases) ->
             Alcotest.test_case label `Quick (test_grammar label parse cases))
           grammars ) ]
