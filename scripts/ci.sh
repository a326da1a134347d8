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
# QCHECK_LONG=1 multiplies each one's case count by its long_factor.
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

echo "== fleet smoke (verifier on, both policies, 2 domains) =="
dune exec bin/lxr_fleet.exe -- compare -b lusearch -c lxr,shenandoah \
  -p round-robin,gc-aware -k 2 -n 400 --domains=2 --verify=all

echo "== fleet chaos run (seeded crash + restart, retry + SLO, 2 domains) =="
# Replica 0 is crashed mid-run and relaunched into a smaller heap; the
# run must still complete with exit 0.
dune exec bin/lxr_fleet.exe -- run -b lusearch -c lxr -k 3 -n 1500 --seed 42 \
  --chaos 'crash@0.3:r0,heap-shrink@0.6x0.7,restart:5us' \
  --retry 'timeout:80ms,max:3,backoff:200us' --slo 'p99.9:10ms' --domains=2

echo "== fleet chaos smoke (seeded crash + restart; bit-identical across domains) =="
# A fixed-seed chaos schedule kills replica 0 mid-run and relaunches it;
# the run must complete (exit 0, ok:true), the dead replica must come
# back (restarts:1), and the full metric set must be bit-identical at
# --domains=1 vs =2. The JSON embeds the domain count itself, which is
# the one field allowed to differ.
chaos_a=$(mktemp) chaos_b=$(mktemp)
chaos_fleet() {
  dune exec bin/lxr_fleet.exe -- compare -b lusearch -c "$2" -p gc-aware \
    -k 3 -n 1500 --seed 42 --domains="$1" \
    --chaos 'crash@0.3:r0,heap-shrink@0.6x0.7,restart:5us' \
    --retry 'timeout:80ms,max:3,backoff:200us' --slo 'p99.9:10ms' \
    --format json | sed 's/"domains": [0-9]*/"domains": _/'
}
for c in lxr journal_rc; do
  chaos_fleet 1 "$c" > "$chaos_a"
  chaos_fleet 2 "$c" > "$chaos_b"
  grep -q '"ok": true' "$chaos_a" || {
    echo "ERROR: chaos fleet run failed ($c)" >&2
    exit 1
  }
  grep -q '"restarts": [1-9]' "$chaos_a" || {
    echo "ERROR: crashed replica did not restart ($c)" >&2
    exit 1
  }
  cmp "$chaos_a" "$chaos_b" || {
    echo "ERROR: chaos fleet metrics diverged across --domains ($c)" >&2
    exit 1
  }
done
rm -f "$chaos_a" "$chaos_b"

echo "== distilled-cost smoke (corpus replay under real + ideal lanes) =="
# Every lane must produce exact distilled accounting (or a reported heap
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
pid_a=$(mktemp) pid_b=$(mktemp) pid_out=$(mktemp)
pid_fleet() {
  dune exec bin/lxr_fleet.exe -- run -b lusearch -c lxr -k 3 -n 1500 \
    --seed 42 --controller=pid:obj=burn --slo p99.9:10ms --domains="$1" \
    > "$pid_out"
  sed 's/domains=[0-9]*/domains=_/' "$pid_out"
}
pid_fleet 1 > "$pid_a"
pid_fleet 2 > "$pid_b"
cmp "$pid_a" "$pid_b" || {
  echo "ERROR: pid fleet diverged across --domains" >&2
  exit 1
}
rm -f "$pid_a" "$pid_b" "$pid_out"

echo "== trace corpus: injected fault must diverge =="
if dune exec bin/lxr_trace.exe -- diff test/corpus/luindex.lxrtrace \
    -c lxr,g1 --inject=drop-barrier:2e-3 --inject-into=lxr > /dev/null; then
  echo "ERROR: injected fault produced no divergence" >&2
  exit 1
fi

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
# A header string length of -1, a corpus trace with its checksum cut
# short, and one with a byte appended. The files live outside
# test/corpus/, which the corpus diff lane globs.
bad_dir=$(mktemp -d)
printf 'LXRTRACE\001\377\377\377\377\377\377\377\377\377\001' \
  > "$bad_dir/negative-length.lxrtrace"
good=test/corpus/luindex.lxrtrace
head -c "$(($(wc -c < "$good") - 3))" "$good" > "$bad_dir/cut.lxrtrace"
{ cat "$good"; printf 'x'; } > "$bad_dir/appended.lxrtrace"
for t in "$bad_dir"/*.lxrtrace; do
  reject bin/lxr_trace.exe -- stat "$t"
  reject bin/lxr_trace.exe -- replay "$t" -c lxr
done
rm -rf "$bad_dir"

echo "== ledger goldens on the release build =="
# dune runtest checks ledger/golden/*.digest in the dev profile, which
# compiles with -opaque and so never inlines across modules. The
# benchmark times the release build, whose [@inline] fast paths are
# compiled into their callers; its simulated behaviour must match the
# same goldens. Last, because it rebuilds the tree in release mode.
bash ledger/run.sh --smoke

echo "== ci ok =="
