#!/usr/bin/env bash
# Run every report-writing bench on its tiny BENCH_SMOKE=1 workload, to
# keep the benches compiling and running without paying for the full
# measurement. Smoke reports land in target/bench/BENCH_<name>.json; the
# committed full baselines at the repo root are never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

for bench in pool featcache lifecycle obs forest wal fleet storm; do
  echo "== bench smoke (BENCH_SMOKE=1 cargo bench -p bench --bench $bench) =="
  BENCH_SMOKE=1 cargo bench -p bench --bench "$bench"
done
