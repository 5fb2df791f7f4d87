#!/usr/bin/env bash
# Builds the `paris` CLI and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload align-movies --seed 1 --seconds 22 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Only a
# traced run (`--trace 1`) builds and uses perfbench-layers, the package
# that links the paris library, so the end-to-end figures depend on the
# CLI and the HTTP API alone.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --bin paris
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release"
layers=()
if [[ " $* " == *" --trace 1 "* ]]; then
    cargo build --offline --release --quiet --manifest-path perfbench/layers/Cargo.toml
    layers=(--layers "$bin/perfbench-layers")
fi
exec "$bin/perfbench" --paris "$bin/paris" "${layers[@]}" "$@"
