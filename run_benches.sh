#!/usr/bin/env bash
# Regenerates every paper table/figure: runs all bench binaries in order.
#
#   ./run_benches.sh [name-filter]
#
# With an argument, only binaries whose basename contains the substring
# run (e.g. `./run_benches.sh eps_sweep`). Non-executable files in
# build/bench/ (CMake droppings etc.) are skipped explicitly.
# Serving performance is measured by the benchmark of record,
# bench/suite/run.py (see BENCHMARK.json), not by this script.
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
