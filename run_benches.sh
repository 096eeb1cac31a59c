#!/usr/bin/env bash
# Regenerates every paper table/figure: runs all bench binaries in order.
#
#   ./run_benches.sh [name-filter]
#
# With an argument, only binaries whose basename contains the substring
# run (e.g. `./run_benches.sh eps_sweep`). Non-executable files in
# build/bench/ (CMake droppings etc.) are skipped explicitly.
set -euo pipefail
cd "$(dirname "$0")"

filter="${1:-}"

if ! ls build/bench/* >/dev/null 2>&1; then
  echo "error: build/bench/ is empty — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

for b in build/bench/*; do
  name="$(basename "$b")"
  if [ ! -f "$b" ] || [ ! -x "$b" ]; then
    echo "----- skipping $name (not an executable file)"
    continue
  fi
  if [ -n "$filter" ] && [[ "$name" != *"$filter"* ]]; then
    continue
  fi
  echo "===== $name ====="
  timeout 2400 "$b"
  echo
done

# Honesty gate: a thread-sweep JSON produced on a box with fewer cores
# than the sweep's max thread count contains no multi-thread scaling
# evidence — refuse to let those numbers pass as speedup claims.
for j in BENCH_service.json BENCH_serving.json; do
  [ -f "$j" ] || continue
  if grep -q '"multi_thread_scaling_valid": false' "$j"; then
    hc="$(grep -o '"hardware_concurrency": [0-9]*' "$j" | head -1 \
          | grep -o '[0-9]*$')"
    echo "REFUSED: $j was produced with hardware_concurrency=$hc, below" \
         "the swept thread counts. Its multi-thread QPS/speedup numbers" \
         "measure queueing overhead, NOT parallel scaling — do not cite" \
         "them as speedups. Per-point scaling_valid flags say which" \
         "points are trustworthy."
  fi
done

# Observability overhead gate: sampled tracing (1-in-64) must stay within
# 5% of tracing-off warm throughput, or the obs PR's low-overhead claim
# does not hold on this run.
if [ -f BENCH_obs.json ] \
    && grep -q '"overhead_within_5pct": false' BENCH_obs.json; then
  ratio="$(grep -o '"sampled_over_off_ratio": [0-9.]*' BENCH_obs.json \
           | grep -o '[0-9.]*$')"
  echo "WARNING: BENCH_obs.json reports sampled-tracing throughput at" \
       "${ratio}x of tracing-off — outside the 5% overhead budget. Do not" \
       "cite sampled tracing as low-overhead from this run (noisy or" \
       "oversubscribed machine?)."
fi

# Audit overhead gate: the background auditor must stay within 2% of
# audit-off warm throughput, and must actually have run audit passes
# during the measurement window (or the overhead claim is vacuous).
if [ -f BENCH_audit.json ]; then
  if grep -q '"audit_within_2pct": false' BENCH_audit.json; then
    ratio="$(grep -o '"audit_on_over_off_ratio": [0-9.]*' BENCH_audit.json \
             | grep -o '[0-9.]*$')"
    echo "WARNING: BENCH_audit.json reports audited throughput at" \
         "${ratio}x of audit-off — outside the 2% overhead budget. Do not" \
         "cite the background auditor as free from this run (noisy or" \
         "oversubscribed machine?)."
  fi
  if grep -q '"measurement_valid": false' BENCH_audit.json; then
    echo "NOTE: BENCH_audit.json was produced with fewer cores than" \
         "workers + the auditor thread — its ratio measures time-slice" \
         "contention on an oversubscribed box, not the auditor's" \
         "marginal cost. Re-run with --threads below the core count."
  fi
  if grep -q '"auditor_ran": false' BENCH_audit.json; then
    echo "WARNING: BENCH_audit.json measured zero audit passes during" \
         "the window — the overhead numbers say nothing about the" \
         "auditor. Lower --cadence or raise --requests/--repeats."
  fi
fi
