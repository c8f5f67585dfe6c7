#!/usr/bin/env bash
# Builds the workspace's `fec_svc` daemon and the benchmark, then runs the
# benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last stdout line is the JSON result.
# Results files and daemon scratch space go under $CARGO_TARGET_DIR/perfbench
# (default target/perfbench).
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p fec-svc --bin fec_svc >&2
exec cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --daemon "$target/release/fec_svc" --out "$target/perfbench" "$@"
