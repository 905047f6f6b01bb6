#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
#
#   bash perfbench/run.sh --workload fit --seed 1 --seconds 20 --trace 0
#
# Build output goes to _build/ inside the checkout and to stderr, so the
# last line of stdout is the benchmark's JSON result. Without the
# project's libraries next to this directory the build fails and the
# script exits nonzero before printing anything.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./perfbench/hostspeed.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
