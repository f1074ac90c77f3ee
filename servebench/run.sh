#!/usr/bin/env bash
# Build cots-serve and the benchmark from this checkout's sources, then
# run the benchmark from the checkout root.
#
#   bash servebench/run.sh --workload zipf-mem --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh --self-test
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "servebench: $root holds no cots-serve sources to build" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cots-serve --bin cots-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --server "$CARGO_TARGET_DIR/release/cots-serve" --work servebench/out "$@"
