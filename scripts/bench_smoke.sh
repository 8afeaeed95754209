#!/usr/bin/env bash
# Run every report-writing bench, and `pipeline`, on its tiny
# BENCH_SMOKE=1 workload, to keep the benches compiling and running
# without paying for the full measurement. Smoke reports land in target/bench/BENCH_<name>.json; the
# committed full baselines at the repo root are never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

# `pipeline` writes no report (criterion prints its medians): it is here
# because nothing else times the regex kernel (`retex_find_iter`) and the
# online extract -> featurize -> predict path in isolation.
for bench in pool featcache lifecycle obs forest wal fleet storm pipeline; do
  echo "== bench smoke (BENCH_SMOKE=1 cargo bench -p bench --bench $bench) =="
  BENCH_SMOKE=1 cargo bench -p bench --bench "$bench"
done
