#!/usr/bin/env bash
# Builds the scheduler daemon and the benchmark from source in the current
# checkout, then runs the benchmark with the given arguments. Run it from
# the repository root, e.g.
#   bash bench/perf/run.sh --workload serve-mix --seed 1 --seconds 24 --trace 0
set -euo pipefail
dune build --root . ./bin/sunstone_cli.exe ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
