#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests.
#
#   scripts/check.sh                # fmt + clippy + tests (incl. scoutbench's,
#                                   # which pin the API BENCHMARK.json builds on)
#                                   # + release runs of the Scout Master programs
#   scripts/check.sh --bench-smoke  # also run every report-writing bench
#                                   # and `pipeline` on its tiny workload
#                                   # (BENCH_SMOKE=1; reports go to
#                                   # target/bench/)
#   scripts/check.sh --serve-smoke  # also boot `scoutctl serve` on an
#                                   # ephemeral port and probe it end-to-end
#   scripts/check.sh --lifecycle-smoke
#                                   # also replay the continual-learning loop
#                                   # (drift -> retrain -> promotion -> rollback)
#                                   # and round-trip /v1/feedback on a live server
#   scripts/check.sh --wal-smoke    # also kill -9 a WAL-backed server mid-load
#                                   # and assert byte-identical crash recovery
#   scripts/check.sh --fleet-smoke  # also boot a 32-team synthetic fleet and
#                                   # burst /v1/route via fleetgen (accuracy
#                                   # floor + zero unmapped answers)
#   scripts/check.sh --storm-smoke  # also replay every stormgen adversarial
#                                   # scenario against a storm-controlled
#                                   # server (zero 5xx, dedup visibly working)
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

bench_smoke=0
serve_smoke=0
lifecycle_smoke=0
wal_smoke=0
fleet_smoke=0
storm_smoke=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    --lifecycle-smoke) lifecycle_smoke=1 ;;
    --wal-smoke) wal_smoke=1 ;;
    --fleet-smoke) fleet_smoke=1 ;;
    --storm-smoke) storm_smoke=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q

# `cargo test` only compiles examples and binaries. Run the Scout Master
# programs: the example asserts its decision, the misroute replay its
# 28/48.
echo "== Scout Master programs (release runs) =="
cargo run --release -q --example scout_master_sim
cargo run --release -q -p experiments --bin ext_multi_scout
cargo run --release -q -p experiments --bin ext_fleet_misroutes

# scoutbench is a package of its own (not a workspace member), so an API
# break against it is invisible to the line above.
echo "== scoutbench tests (cargo test --release --manifest-path scoutbench/Cargo.toml) =="
cargo test --release --offline --manifest-path scoutbench/Cargo.toml

if [[ "$bench_smoke" == 1 ]]; then
  scripts/bench_smoke.sh
fi

if [[ "$serve_smoke" == 1 ]]; then
  echo "== serve smoke (scoutctl serve + probe) =="
  scripts/serve_smoke.sh
fi

if [[ "$lifecycle_smoke" == 1 ]]; then
  echo "== lifecycle smoke (scoutctl lifecycle + serve --lifecycle) =="
  scripts/lifecycle_smoke.sh
fi

if [[ "$wal_smoke" == 1 ]]; then
  echo "== wal smoke (kill -9 + byte-identical crash recovery) =="
  scripts/wal_smoke.sh
fi

if [[ "$fleet_smoke" == 1 ]]; then
  echo "== fleet smoke (32 synthetic teams, sharded /v1/route burst) =="
  scripts/fleet_smoke.sh
fi

if [[ "$storm_smoke" == 1 ]]; then
  echo "== storm smoke (adversarial stormgen scenarios, zero 5xx) =="
  scripts/storm_smoke.sh
fi

echo "all checks passed"
