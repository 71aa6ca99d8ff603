#!/usr/bin/env bash
# Builds the `cmvrp` binary and the benchmark from source, then runs the
# benchmark. Run it from the repository root; arguments pass through:
#
#   bash benchmark/run.sh --workload flash-crowd --seed 7 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target), results to
# $CARGO_TARGET_DIR/benchmark/<workload>/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cmvrp-cli --bin cmvrp
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/cmvrp-benchmark" "$@"
