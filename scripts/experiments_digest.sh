#!/bin/sh
# Prints one "NAME MD5" line per experiment that `lxr_sim list` names:
# the MD5 of `lxr_sim experiment NAME --scale 0.02 --iterations 2` at
# the default seed (42). test/golden/experiments.digest holds the
# expected lines; scripts/ci.sh diffs this script's output against it.
# Release and dev builds print identical experiment output.
#
# Uses the lxr_sim already built in _build/default, so build it first
# (`dune build ./bin/lxr_sim.exe`, in either profile). After a
# deliberate change to experiment output, regenerate the golden with
#   sh scripts/experiments_digest.sh > test/golden/experiments.digest
set -eu
cd "$(dirname "$0")/.."

exe=_build/default/bin/lxr_sim.exe
[ -x "$exe" ] || {
  echo "experiments_digest.sh: $exe is not built" >&2
  exit 1
}
names=$("$exe" list | sed -n '/^experiments:/,$s/^  //p')
for name in $names; do
  # Each experiment's output goes to a file first, so a failing run
  # stops the script instead of hashing a partial report.
  out=$(mktemp)
  "$exe" experiment "$name" --scale 0.02 --iterations 2 > "$out"
  printf '%s %s\n' "$name" "$(md5sum < "$out" | cut -d' ' -f1)"
  rm -f "$out"
done
