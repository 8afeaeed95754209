#!/usr/bin/env bash
# End-to-end smoke test for the online serving layer: boot
# `scoutctl serve` on an ephemeral port, probe the health and predict
# endpoints (asserting 2xx + well-formed JSON), and push a little load.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p scoutctl

serve_log=$(mktemp)
./target/release/scoutctl serve --addr 127.0.0.1:0 --faults-per-day 1 \
  --max-runtime-secs 120 >"$serve_log" 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

addr=""
for _ in $(seq 1 120); do
  addr=$(grep -o '127\.0\.0\.1:[0-9]*' "$serve_log" || true)
  [[ -n "$addr" ]] && break
  sleep 1
done
if [[ -z "$addr" ]]; then
  echo "serve smoke: server never printed its listen address" >&2
  exit 1
fi
echo "server up on $addr"

./target/release/scoutctl probe --addr "$addr" --path /healthz --expect-field status
./target/release/scoutctl probe --addr "$addr" --path /readyz --expect-field teams
./target/release/scoutctl probe --addr "$addr" --path /v1/scouts/PhyNet/predict \
  --body '{"text":"Switch agg-3 in c1.dc1 reporting CRC errors and packet loss"}' \
  --expect-field verdict
./target/release/scoutctl loadgen --addr "$addr" --requests 100 --concurrency 4

# Every predict above — the probe and loadgen's 100 — must have landed
# in the predict latency histogram (existence, not timing).
metrics=$(./target/release/scoutctl probe --addr "$addr" --path /metrics)
count=$(awk '$1 == "serve_latency_predict_count" {print int($2)}' <<<"$metrics")
if [[ "${count:-0}" -lt 101 ]]; then
  echo "serve smoke: serve_latency_predict_count is ${count:-missing} in /metrics, want >= 101" >&2
  exit 1
fi
echo "predict latency histogram exported: serve_latency_predict_count $count"

kill "$serve_pid" 2>/dev/null || true
trap - EXIT
echo "serve smoke passed"
