#!/usr/bin/env bash
# The benchmark's whole gate in one script: build, self-test, one full
# run (end to end and traced), and the repeatability check. Leaves the
# upload-ready results in benchmark/out/. Call it from the repo root or
# anywhere else; a workflow step needs nothing more than `benchmark/ci.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --trace 1 "$@"
cargo run --release --offline --quiet --manifest-path "$manifest" -- repeat 2 "$@"
ls -l benchmark/out
