#!/bin/sh
# One-command tier-1 verification: build, tests, and (when the formatter is
# installed) formatting. CI and pre-commit hooks should run exactly this.
set -eu

cd "$(dirname "$0")/.."

# Responses carry wall-clock timings; zero them so runs can be diffed.
strip_wall_s() {
  sed -E 's/"wall_s":[-+0-9.eE]+/"wall_s":0/g' "$1" >"$2"
}

echo "== dune build"
dune build

echo "== dune runtest"
# Includes the Gc ground-truth oracle (test_model_hot "gc oracle"): the
# SA070 static verdict and the measured minor-heap words must agree, in
# both directions, or the suite fails.
dune runtest

echo "== bench/perf smoke (every benchmark code path on tiny inputs)"
# About a second. Exits 1 on a missing, unitless or non-finite metric or on
# a failed output check (wrong EDP, a failed request), so a search change
# that breaks what the benchmark checks fails here rather than in a run.
dune exec bench/perf/perf.exe -- --smoke >/dev/null

echo "== srclint (source scan of lib/, bin/ and bench/)"
# The rules themselves are gated by test_srclint in dune runtest: every
# fixture must fire, every source code of the SA table must fire on some
# fixture, and the cross-module pair must need the directory scan.
dune exec bin/srclint.exe -- --json >/dev/null

echo "== the shipped binary links no linter"
# The source linter is a development tool (lib/srclint, bin/srclint.ml).
# A symbol of one of its modules in the sunstone binary means the shipped
# scheduler links it again.
linked=$(nm _build/default/bin/sunstone_cli.exe |
  grep -c 'camlSun_\(analysis\|srclint\)__\(Lexer\|Srcmod\|Rules\|Allocsum\|Suppress\|Srclint\)' || true)
if [ "$linked" -ne 0 ]; then
  echo "shipped binary: sunstone links $linked linter symbol(s)" >&2
  exit 1
fi
echo "shipped binary: ok (no linter symbols)"

echo "== capacity predicate (one owner of the partition membership rule)"
# Which operands share a partition is decided by Probe.stored_by_partition
# and Probe.fit_table, and every capacity verdict reads that table. Besides
# the definition in lib/arch, A.partition_for may appear only in the
# probe, the model's traffic chain (part_at), the CoSA-like log-capacity
# relaxation and the audit's per-operand frontier oracle; a call anywhere
# else is a second copy of the rule.
stray=$(grep -rlw --include='*.ml' 'partition_for' lib | grep -v -x \
  -e lib/arch/arch.ml -e lib/cost/probe.ml -e lib/cost/model.ml \
  -e lib/baselines/cosa_like.ml -e lib/analysis/audit.ml || true)
if [ -n "$stray" ]; then
  echo "capacity predicate: A.partition_for called outside its owners:" >&2
  echo "$stray" >&2
  exit 1
fi
echo "capacity predicate: ok"

echo "== one owner per rule (checkers render, never re-derive)"
# Arch.violations, Workload.violations and Mapping.violations state the
# structural rules their make enforces, and Arch.unroll_violation is the
# one fanout test; Wellformed and Legality only render their verdicts. A
# fanout or a workload bound read in either checker is a second copy of
# an owned rule.
stray=$(grep -nw -e fanout -e 'W\.bound' lib/analysis/legality.ml lib/analysis/wellformed.ml || true)
if [ -n "$stray" ]; then
  echo "one owner per rule: a checker re-derives an owned rule:" >&2
  echo "$stray" >&2
  exit 1
fi
echo "one owner per rule: ok"

echo "== one owner for the seeded fork"
# A warm search differs from a cold one only through Incumbent: the seed
# slot, the best enumerated mapping kept beside it, the pruning margin and
# the seed's EDP live in lib/sunstone/incumbent.ml, and the search phases
# read the margin-applied alpha it exposes. One of these names in any
# other lib/ module spreads the fork back into the search.
stray=$(grep -rnw --include='*.ml' -e best_alt -e best_is_seed -e prune_margin -e seed_edp lib |
  grep -v '^lib/sunstone/incumbent\.ml:' || true)
if [ -n "$stray" ]; then
  echo "seeded fork: named outside lib/sunstone/incumbent.ml:" >&2
  echo "$stray" >&2
  exit 1
fi
echo "seeded fork: ok"

echo "== sunstone check (static analysis over the registry)"
dune exec bin/sunstone_cli.exe -- check --admissibility

echo "== sunstone audit (differential pruning oracles)"
dune exec bin/sunstone_cli.exe -- audit --kernels 3

echo "== audit injection (a broken pruning rule must fail the audit)"
# The auditor itself is gated: deliberately breaking a pruning rule through
# the test hook must turn the exit code non-zero, or the oracle is vacuous.
for rule in order frontier; do
  if dune exec bin/sunstone_cli.exe -- audit --kernels 1 --inject "$rule" >/dev/null 2>&1; then
    echo "audit injection: --inject $rule did not fail the audit" >&2
    exit 1
  fi
done
echo "audit injection: ok (both injected faults detected)"

echo "== batch --jobs parity (1 vs 4 workers, mixed fixture)"
# The pipeline must produce byte-identical, order-preserving responses at
# any worker count: same bytes at --jobs 4 as at --jobs 1 on the mixed
# valid/illegal/malformed fixture, modulo the inherently nondeterministic
# wall_s timings.
PARITY_TMP=$(mktemp -d)
trap 'rm -rf "$PARITY_TMP"' EXIT
set +e
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o "$PARITY_TMP/seq.jsonl" --cache-dir "$PARITY_TMP/cache-seq" --jobs 1 2>/dev/null
seq_rc=$?
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o "$PARITY_TMP/par.jsonl" --cache-dir "$PARITY_TMP/cache-par" --jobs 4 2>/dev/null
par_rc=$?
set -e
if [ "$seq_rc" -ne "$par_rc" ]; then
  echo "batch parity: exit codes differ (--jobs 1: $seq_rc, --jobs 4: $par_rc)" >&2
  exit 1
fi
strip_wall_s "$PARITY_TMP/seq.jsonl" "$PARITY_TMP/seq.norm"
strip_wall_s "$PARITY_TMP/par.jsonl" "$PARITY_TMP/par.norm"
if ! diff -u "$PARITY_TMP/seq.norm" "$PARITY_TMP/par.norm"; then
  echo "batch parity: --jobs 4 output differs from --jobs 1" >&2
  exit 1
fi
echo "batch parity: ok ($(wc -l <"$PARITY_TMP/seq.norm" | tr -d ' ') responses identical)"

echo "== golden parity (batch --jobs 1 vs committed golden fixture)"
# The fixture has no shape-family mates, so transfer never seeds and the
# responses are pinned byte-identical (modulo wall_s) to the golden file.
# Any change to the search or its alpha-beta bound that moves a mapping or
# cost fails here.
strip_wall_s test/fixtures/batch_mixed_expected.jsonl "$PARITY_TMP/golden.norm"
if ! diff -u "$PARITY_TMP/golden.norm" "$PARITY_TMP/seq.norm"; then
  echo "golden parity: responses drifted from test/fixtures/batch_mixed_expected.jsonl" >&2
  exit 1
fi
echo "golden parity: ok"

echo "== telemetry counter parity (--metrics at --jobs 1 vs --jobs 4)"
# Workers ship their telemetry back as snapshots merged by the parent, so
# the optimizer/model/serve counter totals must not depend on the worker
# count. parpool.* (its per-worker counters depend on the worker count)
# and histograms (with several workers deferred requests re-classify) are
# excluded by the grep.
set +e
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o /dev/null --cache-dir "$PARITY_TMP/cache-tel-seq" --jobs 1 \
  --metrics "$PARITY_TMP/seq-metrics.json" 2>/dev/null
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o /dev/null --cache-dir "$PARITY_TMP/cache-tel-par" --jobs 4 \
  --metrics "$PARITY_TMP/par-metrics.json" 2>/dev/null
set -e
# counter lines are `"name": N`; histogram lines carry a `{` payload
grep -E '"(optimizer|model|serve)\.' "$PARITY_TMP/seq-metrics.json" | grep -v '{' >"$PARITY_TMP/seq-counters"
grep -E '"(optimizer|model|serve)\.' "$PARITY_TMP/par-metrics.json" | grep -v '{' >"$PARITY_TMP/par-counters"
if ! diff -u "$PARITY_TMP/seq-counters" "$PARITY_TMP/par-counters"; then
  echo "telemetry parity: --jobs 4 counter totals differ from --jobs 1" >&2
  exit 1
fi
echo "telemetry parity: ok ($(wc -l <"$PARITY_TMP/seq-counters" | tr -d ' ') counters identical)"

echo "== serve daemon (live replay parity, warm cache, SIGHUP, SIGTERM drain)"
# The daemon must answer a cold replay of the mixed fixture byte-identically
# (modulo wall_s) to batch --jobs 1, serve the second replay entirely from
# the warm cache, re-open its metrics file on SIGHUP, and drain cleanly on
# SIGTERM: exit 0 with a final metrics snapshot written.
SUNSTONE=_build/default/bin/sunstone_cli.exe
SOCK="$PARITY_TMP/sunstone.sock"
"$SUNSTONE" serve --listen "unix:$SOCK" --jobs 2 \
  --cache-dir "$PARITY_TMP/cache-daemon" \
  --metrics "$PARITY_TMP/daemon-metrics.json" 2>"$PARITY_TMP/daemon.log" &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null; rm -rf "$PARITY_TMP"' EXIT
i=0
while ! [ -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve daemon: socket never appeared" >&2
    cat "$PARITY_TMP/daemon.log" >&2
    exit 1
  fi
  sleep 0.05
done
"$SUNSTONE" client --connect "unix:$SOCK" \
  -i test/fixtures/batch_mixed.jsonl -o "$PARITY_TMP/daemon.jsonl"
strip_wall_s "$PARITY_TMP/daemon.jsonl" "$PARITY_TMP/daemon.norm"
if ! diff -u "$PARITY_TMP/seq.norm" "$PARITY_TMP/daemon.norm"; then
  echo "serve daemon: cold replay differs from batch --jobs 1" >&2
  exit 1
fi
"$SUNSTONE" client --connect "unix:$SOCK" \
  -i test/fixtures/batch_mixed.jsonl -o "$PARITY_TMP/daemon2.jsonl"
if grep -q '"status":"computed"' "$PARITY_TMP/daemon2.jsonl"; then
  echo "serve daemon: second replay recomputed instead of hitting the warm cache" >&2
  exit 1
fi
rm -f "$PARITY_TMP/daemon-metrics.json"
kill -HUP "$DAEMON_PID"
i=0
while ! [ -s "$PARITY_TMP/daemon-metrics.json" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve daemon: SIGHUP did not re-create the metrics file" >&2
    exit 1
  fi
  sleep 0.05
done
kill -TERM "$DAEMON_PID"
set +e
wait "$DAEMON_PID"
daemon_rc=$?
set -e
trap 'rm -rf "$PARITY_TMP"' EXIT
if [ "$daemon_rc" -ne 0 ]; then
  echo "serve daemon: SIGTERM drain exited $daemon_rc, want 0" >&2
  cat "$PARITY_TMP/daemon.log" >&2
  exit 1
fi
if ! [ -s "$PARITY_TMP/daemon-metrics.json" ]; then
  echo "serve daemon: no final metrics snapshot after drain" >&2
  exit 1
fi
echo "serve daemon: ok (parity, warm replay, SIGHUP re-open, clean drain)"

# The bench harness writes its BENCH_*.json into the working directory;
# run it from the scratch directory so CI leaves the committed ones alone.
BENCH="$PWD/_build/default/bench/main.exe"

echo "== telemetry overhead (bench/perf paired median on resnet18-simba, <= 2%)"
# bench/perf's traced run searches every resnet18-simba layer twice, with
# telemetry off and on, alternating which goes first, and reports the
# median of the per-layer paired overheads. Telemetry must stay within a
# 2% budget of an uninstrumented search on that median.
dune exec bench/perf/perf.exe -- --workload resnet18-simba --trace 1 \
  --out "$PARITY_TMP/trace.json" >"$PARITY_TMP/trace.jsonl" 2>/dev/null
overhead=$(sed -n -E 's/.*"telemetry\.overhead_frac":\{"value":([-+0-9.eE]+),.*/\1/p' \
  "$PARITY_TMP/trace.jsonl")
if [ -z "$overhead" ]; then
  echo "telemetry overhead: no finite telemetry.overhead_frac in the bench/perf output" >&2
  exit 1
fi
if ! awk -v x="$overhead" 'BEGIN { exit !(x <= 0.02) }'; then
  echo "telemetry overhead: paired median $overhead exceeds the 0.02 budget" >&2
  exit 1
fi
echo "telemetry overhead: ok (paired median $overhead, budget 0.02)"

echo "== bench evaluate (cost-model hot path, >=2x gate on hardest kernel)"
(cd "$PARITY_TMP" && "$BENCH" evaluate)
if ! [ -s "$PARITY_TMP/BENCH_evaluate.json" ]; then
  echo "bench evaluate: BENCH_evaluate.json missing or empty" >&2
  exit 1
fi

echo "== bench transfer (warm >= 20% fewer evaluations, EDP equal-or-better per layer, matches the committed file)"
# Cold vs steady-state warm over the ResNet-18 and Inception-v3 catalogs.
# The bench itself enforces the two acceptance gates (>= 20% fewer
# mappings evaluated on ResNet-18, per-layer warm EDP never worse than
# cold) and exits non-zero on either violation.
(cd "$PARITY_TMP" && "$BENCH" transfer)
if ! [ -s "$PARITY_TMP/BENCH_transfer.json" ]; then
  echo "bench transfer: BENCH_transfer.json missing or empty" >&2
  exit 1
fi
# Counts and EDPs are a pure function of the tree, so the committed file
# must match this run once the timings (the *_search_s lines) are set
# aside: a change that moves a count or an EDP commits the new file.
grep -v '_search_s"' BENCH_transfer.json >"$PARITY_TMP/transfer.committed"
grep -v '_search_s"' "$PARITY_TMP/BENCH_transfer.json" >"$PARITY_TMP/transfer.run"
if ! diff "$PARITY_TMP/transfer.committed" "$PARITY_TMP/transfer.run" >"$PARITY_TMP/transfer.diff"; then
  echo "bench transfer: counts or EDPs differ from the committed BENCH_transfer.json:" >&2
  head -40 "$PARITY_TMP/transfer.diff" >&2
  exit 1
fi
echo "bench transfer: counts and EDPs match the committed BENCH_transfer.json"

echo "== bench search (cold-search ledger matches the committed file)"
# bench/perf's three cold request sets searched in process. As with the
# transfer ledger, everything but the *_search_s timing lines is a pure
# function of the tree: a change that moves a count or an EDP commits the
# new file, and its diff shows which searches moved.
(cd "$PARITY_TMP" && "$BENCH" search)
if ! [ -s "$PARITY_TMP/BENCH_search.json" ]; then
  echo "bench search: BENCH_search.json missing or empty" >&2
  exit 1
fi
grep -v '_search_s"' BENCH_search.json >"$PARITY_TMP/search.committed"
grep -v '_search_s"' "$PARITY_TMP/BENCH_search.json" >"$PARITY_TMP/search.run"
if ! diff "$PARITY_TMP/search.committed" "$PARITY_TMP/search.run" >"$PARITY_TMP/search.diff"; then
  echo "bench search: counts or EDPs differ from the committed BENCH_search.json:" >&2
  head -40 "$PARITY_TMP/search.diff" >&2
  exit 1
fi
echo "bench search: counts and EDPs match the committed BENCH_search.json"

echo "== bench profile (the search-time sampler runs and reports shares)"
# One in-process run of the tensor-simba set under the SIGPROF sampler
# (more only if that run ended before a kernel tick charged it): it must
# exit 0 (it exits 1 when it took no sample) and print share rows. The
# shares themselves are not gated; a run takes a sample or two at a
# 250 Hz kernel tick, a profile worth reading takes --reps 150 or so.
(cd "$PARITY_TMP" && "$BENCH" profile tensor-simba --reps 1) >"$PARITY_TMP/profile.txt"
if ! grep -qE '^ +[0-9.]+% +[0-9]+ ' "$PARITY_TMP/profile.txt"; then
  echo "bench profile: no share rows in the output:" >&2
  cat "$PARITY_TMP/profile.txt" >&2
  exit 1
fi
echo "bench profile: ok ($(tail -1 "$PARITY_TMP/profile.txt"))"

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "== ok"
