#!/usr/bin/env bash
# Build privim-serve and the benchmark harness in release mode, then run
# the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# progress goes to stderr, so the harness's result object stays the last
# line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p privim-serve --bin privim-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/privim-perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/privim-serve" "$@"
