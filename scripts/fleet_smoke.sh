#!/usr/bin/env bash
# End-to-end smoke test for the sharded fleet routing plane: boot
# `scoutctl serve` with 32 synthetic teams rendezvous-hashed over 4
# shards, then drive a multi-team incident burst through `/v1/route`
# with `scoutctl fleetgen`, enforcing an accuracy floor and zero
# unmapped answers (the silent-drop regression gate). The 32 teams share
# one featurization fingerprint, so the burst must leave one warm feature
# cache behind, not 32: chunk bytes summed over the registry stay under
# a single cache's budget.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p scoutctl

# Matches the fleetgen world below: the generator replays the same seed
# to learn each incident's true owner.
world_flags=(--seed 7 --faults-per-day 2)

serve_log=$(mktemp)
./target/release/scoutctl serve --addr 127.0.0.1:0 "${world_flags[@]}" \
  --synthetic-teams 32 --fleet-shards 4 \
  --max-runtime-secs 600 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

addr=""
for _ in $(seq 1 300); do
  addr=$(grep -o '127\.0\.0\.1:[0-9]*' "$serve_log" | head -n1 || true)
  [[ -n "$addr" ]] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "fleet smoke: server exited before listening" >&2
    cat "$serve_log" >&2
    exit 1
  fi
  sleep 1
done
if [[ -z "$addr" ]]; then
  echo "fleet smoke: server never printed its listen address" >&2
  cat "$serve_log" >&2
  exit 1
fi
echo "fleet server up on $addr (32 synthetic teams, 4 shards)"

# The measured accuracy on this seed is ~0.57 (top-k hit ~0.89); the
# floor guards against routing-plane regressions, not model quality.
./target/release/scoutctl fleetgen --addr "$addr" "${world_flags[@]}" \
  --requests 40 --concurrency 4 --min-accuracy 0.4 --max-unmapped 0

# `serve` runs with the default --feat-cache-mb 64 per entry.
budget=$((64 * 1024 * 1024))
cached=$(./target/release/scoutctl probe --addr "$addr" --path /metrics |
  awk '/^serve_featcache_bytes /{printf "%d", $2}')
if [[ "${cached:-0}" -le 0 || "$cached" -gt "$budget" ]]; then
  echo "fleet smoke: registry-wide featcache bytes ${cached:-missing}," \
    "expected within (0, $budget] — one warm cache for the fleet" >&2
  exit 1
fi
echo "fleet featcache: $cached bytes across 32 entries (one cache's budget: $budget)"

kill "$serve_pid" 2>/dev/null || true
trap - EXIT
echo "fleet smoke passed"
