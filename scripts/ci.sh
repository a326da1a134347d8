#!/bin/sh
# The one CI definition: build everything, run the full test suite
# (which includes the ledger smoke run and its golden digests), then the
# smoke, determinism and injected-fault lanes below.
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== registry properties, long budget =="
# dune runtest runs the object-store properties at a fixed budget;
# QCHECK_LONG=1 multiplies each one's case count by its long_factor,
# running 100 of the page-crossing model property's op lists (6,500 to
# 7,000 ops, whose ids, slots and field words each cross a 4,096-entry
# table page).
QCHECK_LONG=1 dune exec test/test_main.exe -- test heap:objects

echo "== verifier smoke (clean run must report zero violations) =="
dune exec examples/quickstart.exe

echo "== verifier smoke (injected fault must be caught) =="
if dune exec bin/lxr_sim.exe -- run -b lusearch -c lxr -s 0.25 \
    --verify=all --inject=drop-barrier:2e-3; then
  echo "ERROR: injected corruption was not detected" >&2
  exit 1
fi

echo "== trace corpus: cross-collector differential replay =="
# zgc refuses the corpus's small heaps (minimum heap size); the differ
# reports the refusal as a skipped lane and diffs the rest. The STW lanes
# (serial, parallel, immix, semispace) run the shared mark and sweep
# kernels with no concurrent machinery on top.
for t in test/corpus/*.lxrtrace; do
  dune exec bin/lxr_trace.exe -- diff "$t" \
    -c lxr,g1,shenandoah,zgc,journal_rc,serial,parallel,immix,semispace
done

echo "== trace corpus: LXR ablations in lockstep =="
# The corpus lane above diffs no LXR ablation. These lanes run the
# in-pause decrement drain (-LD), the in-pause SATB trace (-SATB, STW),
# the object-remembering barrier and region-based evacuation against
# default LXR on two corpus traces.
for t in test/corpus/luindex.lxrtrace test/corpus/xalan.lxrtrace; do
  dune exec bin/lxr_trace.exe -- diff "$t" \
    -c lxr,lxr-nosatb,lxr-nold,lxr-stw,lxr-objbar,lxr-regions
done

echo "== fleet smoke (verifier on, both policies, 2 domains) =="
dune exec bin/lxr_fleet.exe -- compare -b lusearch -c lxr,shenandoah \
  -p round-robin,gc-aware -k 2 -n 400 --domains=2 --verify=all

echo "== fleet chaos run (seeded crash + restart, retry + SLO, 2 domains) =="
# Replica 0 is crashed mid-run and relaunched into a smaller heap; the
# run must still complete with exit 0.
dune exec bin/lxr_fleet.exe -- run -b lusearch -c lxr -k 3 -n 1500 --seed 42 \
  --chaos 'crash@0.3:r0,heap-shrink@0.6x0.7,restart:5us' \
  --retry 'timeout:80ms,max:3,backoff:200us' --slo 'p99.9:10ms' --domains=2

# Runs lxr_fleet with the given arguments at --domains=1 and =2 and
# fails unless the two reports are byte-identical once the domain count
# (domains=N in text, "domains": N in JSON) is masked. Each report is
# written to a file first, so a failing run stops the script; the
# --domains=1 report stays in "$fleet_dir/1" for the lane's own checks.
fleet_dir=$(mktemp -d)
same_across_domains() {
  lane=$1
  shift
  for d in 1 2; do
    dune exec bin/lxr_fleet.exe -- "$@" --domains="$d" > "$fleet_dir/$d"
    sed -e 's/domains=[0-9]*/domains=_/' -e 's/"domains": [0-9]*/"domains": _/' \
      "$fleet_dir/$d" > "$fleet_dir/masked-$d"
  done
  cmp "$fleet_dir/masked-1" "$fleet_dir/masked-2" || {
    echo "ERROR: $lane diverged across --domains" >&2
    exit 1
  }
}

echo "== fleet chaos smoke (seeded crash + restart; bit-identical across domains) =="
# A fixed-seed chaos schedule kills replica 0 mid-run and relaunches it;
# the run must complete (exit 0, ok:true), the dead replica must come
# back (restarts:1), and the full metric set must be bit-identical at
# --domains=1 vs =2. The JSON embeds the domain count itself, which is
# the one field allowed to differ.
for c in lxr journal_rc; do
  same_across_domains "chaos fleet metrics ($c)" compare -b lusearch -c "$c" \
    -p gc-aware -k 3 -n 1500 --seed 42 \
    --chaos 'crash@0.3:r0,heap-shrink@0.6x0.7,restart:5us' \
    --retry 'timeout:80ms,max:3,backoff:200us' --slo 'p99.9:10ms' \
    --format json
  grep -q '"ok": true' "$fleet_dir/1" || {
    echo "ERROR: chaos fleet run failed ($c)" >&2
    exit 1
  }
  grep -q '"restarts": [1-9]' "$fleet_dir/1" || {
    echo "ERROR: crashed replica did not restart ($c)" >&2
    exit 1
  }
done

echo "== distilled-cost smoke (corpus replay under real + ideal lanes) =="
# Every lane must produce distilled accounting (or a reported heap
# refusal); a failed ideal baseline or malformed row exits non-zero.
dune exec bin/lxr_trace.exe -- distill test/corpus/luindex.lxrtrace \
  -c lxr,g1,shenandoah,journal_rc --format json > /dev/null

echo "== controller smoke (hill + pid on the adversaries) =="
for spec in hill pid; do
  dune exec bin/lxr_sim.exe -- run -b fragger -c lxr -s 0.3 \
    --controller="$spec" > /dev/null
done
dune exec bin/lxr_sim.exe -- run -b phaser -c lxr -s 0.3 \
  --controller=pid:obj=cost --lxr-knob=wastage_threshold=0.12 > /dev/null

echo "== fleet controller (pid on the SLO burn; bit-identical across domains) =="
# Replicas read the burn rate the fleet publishes between rounds, on
# whichever domain serves them, so the controlled run must print the
# same report at --domains=1 and =2 apart from the domain count.
same_across_domains "pid fleet" run -b lusearch -c lxr -k 3 -n 1500 \
  --seed 42 --controller=pid:obj=burn --slo p99.9:10ms

echo "== busy fleet (multi-replica windows; bit-identical across domains) =="
# At load 0.9 nearly every window has work on all four replicas, so the
# rounds are shared between domains through the pool's job handoff; the
# report must still equal --domains=1 apart from the domain count.
same_across_domains "busy fleet" run -b lusearch -c lxr -k 4 -n 3000 \
  --load 0.9 --seed 42

echo "== hedged fleet (retry, hedge and deadline settle; bit-identical across domains) =="
# A 20 us hedge threshold and a 200 us deadline at load 0.6: thousands
# of hedge copies race their primaries, and a third of the completions
# land past the deadline, so settle picks winners across replicas and
# counts timeouts in nearly every window. The report must equal
# --domains=1 apart from the domain count.
same_across_domains "hedged fleet" run -b lusearch -c lxr -k 4 -n 3000 \
  --load 0.6 -p least-outstanding \
  --retry 'timeout:200us,max:3,backoff:20us,hedge:20us' --seed 42
rm -rf "$fleet_dir"

echo "== trace corpus: injected fault must diverge =="
if dune exec bin/lxr_trace.exe -- diff test/corpus/luindex.lxrtrace \
    -c lxr,g1 --inject=drop-barrier:2e-3 --inject-into=lxr > /dev/null; then
  echo "ERROR: injected fault produced no divergence" >&2
  exit 1
fi

echo "== every subcommand's --help renders =="
# Cmdliner reports a malformed doc string on stderr when the help page
# is rendered, and only then. Each binary's subcommands come from its
# own COMMANDS section, so a new subcommand is covered without an edit.
help_err=$(mktemp)
for bin in lxr_sim lxr_trace lxr_fleet; do
  exe=_build/default/bin/$bin.exe
  dune build "./bin/$bin.exe"
  cmds=$("$exe" --help=plain |
    sed -n '/^COMMANDS/,/^[A-Z]/s/^       \([a-z][a-z0-9_-]*\).*/\1/p')
  for cmd in "" $cmds; do
    "$exe" $cmd --help=plain > /dev/null 2> "$help_err" || {
      echo "ERROR: $bin $cmd --help=plain failed" >&2
      exit 1
    }
    if [ -s "$help_err" ]; then
      echo "ERROR: $bin $cmd --help=plain wrote to stderr:" >&2
      cat "$help_err" >&2
      exit 1
    fi
  done
done
rm -f "$help_err"

echo "== front ends reject bad input cleanly (exit 1 or 2) =="
# A bad flag value exits 2 and a run that cannot start exits 1. A hang
# or a Cmdliner usage error (124) or an uncaught exception (125) fails
# the lane. "reject -1 ..." / "reject -2 ..." pins the exact code.
reject() {
  want=
  case $1 in -1|-2) want=${1#-}; shift ;; esac
  rc=0
  timeout 60 dune exec "$@" > /dev/null 2>&1 || rc=$?
  case $rc in
    1|2) [ -z "$want" ] || [ "$rc" = "$want" ] || {
      echo "ERROR: exit $rc, want $want: $*" >&2
      exit 1
    } ;;
    *)
      echo "ERROR: exit $rc, want 1 or 2: $*" >&2
      exit 1
      ;;
  esac
}
reject bin/lxr_fleet.exe -- run -n 100 --domains=65
reject bin/lxr_fleet.exe -- run -n 100 --quantum=0
reject bin/lxr_fleet.exe -- run --load=nan
reject bin/lxr_fleet.exe -- run --quantum=1e-300
reject bin/lxr_fleet.exe -- run --requests=-3
reject bin/lxr_fleet.exe -- run -k 3 --chaos crash@0.3:r5
reject bin/lxr_sim.exe -- run --scale=nan
# NaN in a spec is a bad value, not a number (one grammar: Repro_util.Spec).
reject -2 bin/lxr_sim.exe -- run -s 0.05 --inject=drop-barrier:nan
reject -2 bin/lxr_sim.exe -- run -s 0.05 --lxr-knob=wastage_threshold=nan
reject -2 bin/lxr_sim.exe -- run -s 0.05 --controller=pid:kp=nan
reject -2 bin/lxr_sim.exe -- run -s 0.05 --controller=hill:step=nan
reject -1 bin/lxr_fleet.exe -- run -n 100 --queue-limit=0
reject bin/lxr_sim.exe -- run -f 0.01
rej_dir=$(mktemp -d)
reject bin/lxr_trace.exe -- record -f 0.01 -o "$rej_dir/tiny.lxrtrace"
rm -rf "$rej_dir"
reject bin/lxr_fleet.exe -- run -f 0.01
reject bin/lxr_trace.exe -- diff test/corpus/luindex.lxrtrace -c lxr,g1 \
  --inject=drop-barrier:2e-3 --inject-into=lxrr
reject bin/lxr_trace.exe -- diff test/corpus/luindex.lxrtrace -c lxr,ideal

echo "== malformed traces are rejected cleanly (exit 1 or 2) =="
# A header string length of -1, a file ending in an 11-byte over-long
# varint (exactly the bytes the decoder's unchecked varint loop needs
# left), a corpus trace cut at each of the 16 offsets before its end
# (its 12-byte trailer and the last event), and one with a byte
# appended. The files live outside test/corpus/, which the corpus diff
# lane globs.
bad_dir=$(mktemp -d)
printf 'LXRTRACE\001\377\377\377\377\377\377\377\377\377\001' \
  > "$bad_dir/negative-length.lxrtrace"
printf 'LXRTRACE\377\377\377\377\377\377\377\377\377\377\377' \
  > "$bad_dir/overlong-varint.lxrtrace"
good=test/corpus/luindex.lxrtrace
size=$(wc -c < "$good")
for cut in $(seq 1 16); do
  head -c "$((size - cut))" "$good" > "$bad_dir/cut-$cut.lxrtrace"
done
{ cat "$good"; printf 'x'; } > "$bad_dir/appended.lxrtrace"
for t in "$bad_dir"/*.lxrtrace; do
  reject bin/lxr_trace.exe -- stat "$t"
  reject bin/lxr_trace.exe -- replay "$t" -c lxr
done
rm -rf "$bad_dir"

echo "== goldens on the release build =="
# dune runtest checks the goldens in the dev profile, which compiles
# with -opaque and so never inlines across modules. The benchmark times
# the release build, whose [@inline] fast paths and collector kernels
# are compiled into their callers; its simulated behaviour must match
# the same goldens. The ledger goldens cover 5 of the 15 collectors, so
# the collector and fleet goldens run on the release build too, and so
# does engine:hooks, whose allocation check covers the trace-event and
# fault sites the release build inlines into the replayer. Last,
# because it rebuilds the tree in release mode.
bash ledger/run.sh --smoke
dune build --profile release ./test/test_main.exe \
  ./test/golden/collectors.digest ./test/golden/fleet.digest
(cd _build/default/test &&
  ./test_main.exe test collectors:golden &&
  ./test_main.exe test fleet:golden &&
  ./test_main.exe test engine:hooks)

echo "== experiment outputs and examples (release build) =="
# Every experiment `lxr_sim list` names, at --scale 0.02 --iterations 2,
# must print the output whose MD5 test/golden/experiments.digest pins; a
# changed, missing or extra name fails the diff. Then the examples that
# no other lane runs must exit 0.
dune build --profile release ./bin/lxr_sim.exe ./examples/gc_timeline.exe \
  ./examples/heap_sensitivity.exe ./examples/lusearch_latency.exe \
  ./examples/linked_list_pathology.exe
digest=$(mktemp)
sh scripts/experiments_digest.sh > "$digest"
diff -u test/golden/experiments.digest "$digest" || {
  echo "ERROR: experiment output differs from test/golden/experiments.digest" >&2
  exit 1
}
rm -f "$digest"
for e in gc_timeline heap_sensitivity lusearch_latency linked_list_pathology; do
  "_build/default/examples/$e.exe" > /dev/null
done

echo "== ci ok =="
