#!/usr/bin/env bash
# Serve-daemon smoke: start `exp serve` on an OS-assigned loopback port,
# prove the cold -> warm submit round-trip is bit-identical, run a short
# `exp hammer` ladder (every response validated bit-exactly against a
# direct in-process run), and shut the daemon down gracefully with an
# idle connection still open.
#
# Usage: scripts/serve_smoke.sh [scale] [bench-out]
#          scale      paper|quick|smoke   (default: smoke)
#          bench-out  where to write the hammer report
#                     (default: a temp dir; CI passes artifacts/BENCH_serve.json)

set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-smoke}"
tmp="$(mktemp -d)"
out="${2:-$tmp/BENCH_serve.json}"
serve_pid=""

cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

cargo build --release -p aep-bench --bin exp
exp=./target/release/exp

# Port 0: the OS picks a free port and the daemon prints it. --no-cache
# keeps the smoke hermetic (no results/cache/ reads or writes).
echo "==> exp serve --tcp 127.0.0.1:0 --no-cache --scale $scale"
"$exp" serve --tcp 127.0.0.1:0 --no-cache --scale "$scale" --jobs 4 \
  > "$tmp/serve.out" 2> "$tmp/serve.err" &
serve_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr="$(awk '/^listening tcp /{print $3; exit}' "$tmp/serve.out")"
  [ -n "$addr" ] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "==> serve smoke FAILED: daemon exited before listening" >&2
    cat "$tmp/serve.err" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "==> serve smoke FAILED: no 'listening tcp' line within 10s" >&2
  exit 1
fi
connect="tcp:$addr"
echo "==> daemon up at $connect"

"$exp" submit --connect "$connect" --ping > /dev/null

# Cold submit must be a fresh evaluation; the identical warm submit must
# come from the memo tier and be byte-identical run-cache text.
submit_flags=(--connect "$connect" --bench gzip --scheme uniform
  --warmup 10000 --measure 20000)
"$exp" submit "${submit_flags[@]}" > "$tmp/cold.stats" 2> "$tmp/cold.err"
grep -q 'source=fresh' "$tmp/cold.err" || {
  echo "==> serve smoke FAILED: cold submit was not source=fresh" >&2
  cat "$tmp/cold.err" >&2
  exit 1
}
"$exp" submit "${submit_flags[@]}" > "$tmp/warm.stats" 2> "$tmp/warm.err"
grep -q 'source=memo' "$tmp/warm.err" || {
  echo "==> serve smoke FAILED: warm submit was not source=memo" >&2
  cat "$tmp/warm.err" >&2
  exit 1
}
cmp "$tmp/cold.stats" "$tmp/warm.stats"
echo "==> cold/warm round-trip bit-identical (fresh -> memo)"

# Short ladder with gentle floors: the hammer itself validates every
# response bit-exactly against direct in-process runs, so this leg is
# the end-to-end correctness check as much as a load test. The release
# benchmark (committed BENCH_serve.json) uses the full ladder + floors.
echo "==> exp hammer (short ladder)"
"$exp" hammer --connect "$connect" --scale "$scale" \
  --steps 2,4 --step-ms 500 --warmup 10000 --measure 20000 \
  --out "$out" --floor-hit 0.75

# An idle connection held open across the graceful shutdown: the drain
# must end it rather than wait for the client to hang up.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
"$exp" submit --connect "$connect" --shutdown
# Bounded wait: a hung drain fails the smoke instead of stalling CI.
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "==> serve smoke FAILED: daemon still running 10s after shutdown" >&2
  exit 1
fi
wait "$serve_pid"
exec 3<&-
grep -q 'listening tcp' "$tmp/serve.out"
echo "==> serve smoke: all green (report: $out)"
