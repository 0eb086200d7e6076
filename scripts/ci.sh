#!/usr/bin/env bash
# Tier-1 gate for the repository: formatting, the static-analysis wall
# (clippy -D warnings + meshlint), warning-free rustdoc, a fully offline
# release build, and the fully offline test suite. Run from anywhere; no network access is
# required (the workspace has no registry dependencies).
#
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo build --offline --examples (host-integration examples)"
cargo build --offline --examples

echo "==> cargo build -p loramesher -p lora-phy --no-default-features --offline (no_std feature leg)"
cargo build -p loramesher -p lora-phy --no-default-features --offline

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> meshlint (determinism & robustness rules, ratcheted)"
cargo run -q --release --offline -p meshlint -- --root . --baseline meshlint.baseline

echo "==> cargo test -q --offline -p meshlint (analyzer unit + fixture suite)"
cargo test -q --offline -p meshlint

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo test -q --offline -p loramesher --features crypto (AES-CTR flood payload encryption leg)"
cargo test -q --offline -p loramesher --features crypto

echo "==> bench_scaling --smoke (static-grid, sharded-engine and thread-count transparency smoke)"
cargo run --release --offline -p bench --bin bench_scaling -- --smoke

echo "==> meshsim --shards 4 smoke (sharded engine through the CLI)"
cargo run -q --release --offline -p meshsim -- --nodes 12 --duration 120 --shards 4 >/dev/null

echo "==> meshsim --shards 4 --threads 2 smoke (evaluate regions on the fork-chain RNG family)"
cargo run -q --release --offline -p meshsim -- --nodes 12 --duration 120 --shards 4 --threads 2 >/dev/null

echo "==> meshsim --protocol flooding --shards 4 --threads 2 --rng-streams smoke (flooding stack with threaded evaluate regions)"
cargo run -q --release --offline -p meshsim -- --protocol flooding --nodes 12 --duration 120 --shards 4 --threads 2 --rng-streams >/dev/null

echo "==> perfbench build + tests (the benchmark compiles against this workspace's API)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "ci: all checks passed"
