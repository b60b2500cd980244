#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument goes to
# main.exe (see README.md).  Run from the root of the repository:
#   bash bench/e2e/run.sh --workload serve --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line on stdout is the
# result.  The dune cache is off, so nothing is written outside the
# checkout.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: no repository here to build (dune-project and lib/ are missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
