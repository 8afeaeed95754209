#!/usr/bin/env bash
# Run every report-writing bench, then `pipeline` and `training`, on its
# tiny BENCH_SMOKE=1 workload, to keep the benches compiling and running
# without paying for the full measurement. Smoke reports land in target/bench/BENCH_<name>.json; the
# committed full baselines at the repo root are never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

# `pipeline` and `training` write no report (criterion prints their
# medians): `pipeline` is here because nothing else times the regex
# kernel (`retex_find_iter`) and the online extract -> featurize ->
# predict path in isolation; `training` because nothing else runs the
# offline `Scout::prepare`, `RandomForest::fit` and `NlpRouter::fit`
# paths it times.
for bench in pool lifecycle obs forest wal fleet storm pipeline training; do
  echo "== bench smoke (BENCH_SMOKE=1 cargo bench -p bench --bench $bench) =="
  BENCH_SMOKE=1 cargo bench -p bench --bench "$bench"
done
