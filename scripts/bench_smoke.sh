#!/usr/bin/env bash
# Run every bench on its tiny BENCH_SMOKE=1 workload, to keep the benches
# compiling and running without paying for the full measurement. Each
# writes its smoke report to target/bench/BENCH_<name>.json; the committed
# full baselines at the repo root are never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

for bench in pool lifecycle obs forest wal fleet storm pipeline training; do
  echo "== bench smoke (BENCH_SMOKE=1 cargo bench -p bench --bench $bench) =="
  BENCH_SMOKE=1 cargo bench -p bench --bench "$bench"
done
