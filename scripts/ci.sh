#!/usr/bin/env bash
# Offline CI legs: formatting, lints, the full test suite, and the
# stats-regression gate, with per-step elapsed time. The GitHub workflow
# (.github/workflows/ci.yml) runs these same steps as parallel jobs;
# this script is the one-shot local equivalent.
#
# Everything runs with --offline semantics — the workspace has no
# registry dependencies (see the root Cargo.toml), so this script works
# on a machine with no network access at all.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

timings=()

# The benchmark package (perfbench/) builds against the workspace crates
# by path but sits outside the workspace: build it, run its corruption
# self-tests, and require short runs of every workload to check out
# correct.
perfbench_workload() {
  local out
  out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$1" --seconds 1 --trace 0)"
  echo "$out" | tail -n 1
  echo "$out" | tail -n 1 | grep -q '"correct":true'
}

step() {
  local label="$1"
  shift
  echo "==> $label"
  local start elapsed
  start=$(date +%s)
  "$@"
  elapsed=$(( $(date +%s) - start ))
  echo "==> $label: done in ${elapsed}s"
  timings+=("$(printf '%5ss  %s' "$elapsed" "$label")")
}

step "cargo fmt --check" cargo fmt --check
step "cargo clippy --workspace -- -D warnings" \
  cargo clippy --workspace --all-targets -- -D warnings
step "cargo test -q --workspace" cargo test -q --workspace
step "cargo test -q --workspace --release" cargo test -q --workspace --release
step "stats gate (smoke)" scripts/stats_gate.sh smoke
step "differential check (smoke)" scripts/differential_check.sh smoke
step "workload diversity gate" \
  ./target/release/exp workloads report --check
step "faults models gate (smoke)" scripts/faults_models.sh smoke
step "serve smoke" scripts/serve_smoke.sh smoke
step "perfbench self-tests" \
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
step "perfbench figures (1 s)" perfbench_workload figures
step "perfbench campaign (1 s)" perfbench_workload campaign
step "perfbench serve (1 s)" perfbench_workload serve
step "perfbench conflict (1 s)" perfbench_workload conflict

echo "==> ci: all green; per-step timing:"
for t in "${timings[@]}"; do
  echo "    $t"
done
