#!/usr/bin/env bash
# Build the release binaries and the benchmark, then run one measurement.
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR
# (default .bench_build); the benchmark's scratch files go under it too.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cpo_experiments --bin cpo-experiments >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
