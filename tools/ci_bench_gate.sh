#!/usr/bin/env bash
# CI bench gate: build (the library, tools and tests, plus the perfbench
# end-to-end benchmark binary), run the tier-1 test suite, re-run the quick bench
# configurations and diff them against the committed BENCH_*.json baselines
# with tsvcod_benchdiff.
#
# Tolerances are deliberately generous (default 75%): the committed baselines
# were measured on one specific host, so the gate is meant to catch
# order-of-magnitude regressions and broken determinism (bit_identical /
# ok flipping to false), not small scheduling noise. Override with
# TSVCOD_GATE_TOLERANCE=<pct>, and point BUILD_DIR at an existing build tree
# to skip the configure step.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$REPO/build}"
TOLERANCE="${TSVCOD_GATE_TOLERANCE:-75}"
TMP="$(mktemp -d /tmp/tsvcod_gate.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S "$REPO" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j

echo "== perfbench build =="
# perfbench/ is its own CMake project over the same src/ tree (configured the
# way perfbench/run.py does it), so a library header change that breaks the
# end-to-end benchmark fails here instead of only when the benchmark runs.
if [ ! -f "$BUILD/perfbench/CMakeCache.txt" ]; then
  cmake -S "$REPO/perfbench" -B "$BUILD/perfbench" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD/perfbench" --target tsvcod_perfbench -j"$(nproc)"

echo "== tier-1 tests =="
ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

echo
echo "== quick bench reruns =="
# The benches' own acceptance gates (exit 1 on a failed bar) are not fatal
# here: the written JSON carries the ok/bit_identical booleans, and the
# benchdiff boolean gate below flags any true -> false flip as a regression.
"$BUILD/bench/stats_throughput" --words 65536 --reps 2 --out "$TMP/stats.json" || true
"$BUILD/bench/evaluator_throughput" --moves 16384 --reps 2 --out "$TMP/evaluator.json" || true
"$BUILD/bench/trace_ingest" --words 262144 --reps 2 --out "$TMP/trace_io.json" --dir "$TMP" || true
"$BUILD/bench/serve_throughput" --words 65536 --reps 2 --out "$TMP/serve.json" || true
"$BUILD/bench/noc_mesh" --cycles 400 --reps 1 --out "$TMP/noc.json" || true
# Same cycle count as the committed baseline: the propagator's cycles/s
# include its per-netlist precompute, so a shorter window would read slower.
"$BUILD/bench/circuit_propagator" --cycles 1000 --reps 1 --out "$TMP/circuit.json" || true

echo
echo "== regression gates (tolerance ${TOLERANCE}%) =="
fail=0
gate() {
  local name="$1" base="$2" cand="$3"
  shift 3
  echo "-- $name"
  if [ ! -f "$cand" ]; then
    echo "RESULT: REGRESSION ($name produced no output)"
    fail=1
    return
  fi
  if ! "$BUILD/tools/tsvcod_benchdiff" "$base" "$cand" --tolerance "$TOLERANCE" "$@"; then
    fail=1
  fi
  echo
}
# Per-metric overrides loosen the most machine-sensitive numbers further:
# speedup ratios shift with the host's SIMD level, and the mmap-open rate is
# pure page-cache behaviour.
gate stats "$REPO/BENCH_stats.json" "$TMP/stats.json"
gate evaluator "$REPO/BENCH_evaluator.json" "$TMP/evaluator.json" \
  --metric-tolerance speedup_simd=90 --metric-tolerance speedup_batch=90
gate trace_io "$REPO/BENCH_trace_io.json" "$TMP/trace_io.json" \
  --metric-tolerance tsvb_open_words_per_sec=95
# swap_latency_ms depends on the annealing budget *and* host scheduling, so it
# only gates order-of-magnitude blowups; the booleans (desyncs stays 0,
# bit_identical stays true) are the real invariants and gate exactly.
gate serve "$REPO/BENCH_serve.json" "$TMP/serve.json" \
  --metric-tolerance swap_latency_ms=95
# The flits/sec and speedup columns are wall-clock ratios of the batched
# engine (1 and K threads) and the deque reference on whatever cores CI gives
# us, and the raw toggle counters scale with the cycle count (the committed
# baseline ran 10x longer) — so those columns are informational here and only
# the correctness booleans (matches_reference / bit_identical /
# coded_transparent / ok) gate exactly.
gate noc "$REPO/BENCH_noc.json" "$TMP/noc.json" \
  --metric-tolerance mflits_per_sec=95 --metric-tolerance speedup=95 \
  --metric-tolerance vlink_toggles=99999 --metric-tolerance toggle_reduction_pct=95

# energies_match (propagator vs step loop within 1e-9) gates exactly.
gate circuit "$REPO/BENCH_circuit.json" "$TMP/circuit.json"

if [ "$fail" -ne 0 ]; then
  echo "ci_bench_gate: FAILED"
  exit 1
fi
echo "ci_bench_gate: ok"
