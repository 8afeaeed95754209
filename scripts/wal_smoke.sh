#!/usr/bin/env bash
# Crash-recovery smoke test for the write-ahead log: boot
# `scoutctl serve --wal-dir`, push live traffic, kill -9 the server
# mid-run, restart it against the same log, and assert the recovered
# state is byte-identical to a deterministic offline replay of the same
# event prefix. Both lives snapshot every 64 events, so the kill lands
# while background snapshots are being written. Exercises the full
# durability chain: CRC frames, torn final frame tolerance, snapshot
# temp files, recovery, and `scoutctl wal replay`. Before the kill, it
# checks that a request integer the log could not replay is refused and
# that the log folds to its own tip.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p scoutctl

wal_dir=$(mktemp -d)
trap 'rm -rf "$wal_dir"' EXIT

start_server() {
  serve_log=$(mktemp)
  ./target/release/scoutctl serve --addr 127.0.0.1:0 --faults-per-day 1 \
    --wal-dir "$wal_dir/wal" --wal-snapshot-every 64 --max-runtime-secs 120 \
    >"$serve_log" 2>"$serve_log.err" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 120); do
    addr=$(grep -o '127\.0\.0\.1:[0-9]*' "$serve_log" || true)
    [[ -n "$addr" ]] && break
    sleep 1
  done
  if [[ -z "$addr" ]]; then
    echo "wal smoke: server never printed its listen address" >&2
    cat "$serve_log.err" >&2
    exit 1
  fi
}

# ---- first life: traffic, then kill -9 mid-loadgen ----
start_server
first_pid=$serve_pid
echo "server up on $addr (wal in $wal_dir/wal)"

# A time the log could not replay (every logged integer stays below
# 9e15) is refused with a 400, so it is never logged.
if out=$(./target/release/scoutctl probe --addr "$addr" --path /v1/scouts/PhyNet/predict \
  --body '{"text":"BGP flap on agg-3","time_minutes":1e16}' 2>/dev/null); then
  echo "wal smoke: time_minutes 1e16 was accepted: $out" >&2
  exit 1
fi
[[ "$out" == 400* ]] || { echo "wal smoke: time_minutes 1e16 did not answer 400: $out" >&2; exit 1; }

./target/release/scoutctl loadgen --addr "$addr" --requests 50 --concurrency 2

# The log folds to its own tip: every event it holds replays.
state=$(./target/release/scoutctl probe --addr "$addr" --path /v1/wal/state --expect-field seq)
# The body is {"seq":<log tip>,"projections":{"schema":1,"seq":<fold>,...}}.
seqs=$(grep -o '"seq":[0-9]*' <<<"$state" | cut -d: -f2)
log_seq=$(sed -n 1p <<<"$seqs")
fold_seq=$(sed -n 2p <<<"$seqs")
if [[ -z "$log_seq" || "$fold_seq" != "$log_seq" ]]; then
  echo "wal smoke: the log is at seq '$log_seq' but folds only to '$fold_seq'" >&2
  exit 1
fi
echo "log folds to its tip at seq $log_seq"

./target/release/scoutctl loadgen --addr "$addr" --requests 400 --concurrency 4 &
loadgen_pid=$!
sleep 0.3
kill -9 "$first_pid"
wait "$loadgen_pid" 2>/dev/null || true # the cut connection may error; that's the point
echo "killed server $first_pid mid-loadgen"

# ---- second life: recover from the log ----
start_server
second_pid=$serve_pid
trap 'kill "$second_pid" 2>/dev/null || true; rm -rf "$wal_dir"' EXIT
echo "server recovered on $addr"

recovered="$wal_dir/wal/recovered.json"
[[ -s "$recovered" ]] || { echo "wal smoke: no recovered.json written" >&2; exit 1; }

# The recovered state must be byte-identical to an offline deterministic
# replay of the same prefix (recovered.json is written before the
# restarted process appends anything, so replay up to its seq).
seq=$(sed -En 's/.*"seq":([0-9]+).*/\1/p' "$recovered" | head -1)
[[ -n "$seq" ]] || { echo "wal smoke: recovered.json has no seq" >&2; exit 1; }
replayed=$(mktemp)
./target/release/scoutctl wal replay --wal-dir "$wal_dir/wal" --until "$seq" \
  --no-snapshot >"$replayed"
if ! diff -q "$recovered" "$replayed" >/dev/null; then
  echo "wal smoke: recovered state diverges from deterministic replay" >&2
  diff "$recovered" "$replayed" >&2 || true
  exit 1
fi
echo "recovered state at seq $seq is byte-identical to offline replay"

# Snapshot-assisted replay must agree with the from-genesis replay.
with_snap=$(mktemp)
./target/release/scoutctl wal replay --wal-dir "$wal_dir/wal" --until "$seq" >"$with_snap"
if ! diff -q "$with_snap" "$replayed" >/dev/null; then
  echo "wal smoke: snapshot replay diverges from genesis replay" >&2
  exit 1
fi

# The recovered server still serves, and the WAL keeps recording.
./target/release/scoutctl probe --addr "$addr" --path /readyz --expect-field teams
./target/release/scoutctl probe --addr "$addr" --path /v1/wal/state --expect-field seq
./target/release/scoutctl loadgen --addr "$addr" --requests 20 --concurrency 2

kill "$second_pid" 2>/dev/null || true
trap 'rm -rf "$wal_dir"' EXIT
echo "wal smoke passed"
