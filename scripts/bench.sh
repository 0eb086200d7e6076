#!/usr/bin/env bash
# Perf trajectory for the simulator hot path: runs the static-grid
# scaling benchmark — the sequential engine at N ∈ {16, 64, 256, 1024},
# the sharded event engine at N ∈ {4096, 16384} × shards {1, 4, 8}
# (sparse spatial-grid rows, occupancy-weighted bands) and the threaded
# mobile variant at 4096 nodes × threads {1, 2, 4} — and writes
# BENCH_SCALING.json at the repo root so later changes can compare
# (BENCH_PR2/4/6/7/9.json are earlier baselines and keep the retired
# uncached column). The sharded and threaded sections assert identical
# metrics and event counts across their engine rows.
# Extra arguments are passed through (e.g. --secs 60, --seed 7).
#
#   ./scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline -p bench --bin bench_scaling"
cargo build --release --offline -p bench --bin bench_scaling

echo "==> bench_scaling --out BENCH_SCALING.json"
./target/release/bench_scaling --out BENCH_SCALING.json "$@"
