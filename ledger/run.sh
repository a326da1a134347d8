#!/usr/bin/env bash
# Builds the ledger in release mode and runs it with the given
# arguments (see ledger/README.md). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --profile release --display quiet ./ledger/ledger.exe >&2
exec ./_build/default/ledger/ledger.exe "$@"
