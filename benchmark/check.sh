#!/usr/bin/env bash
# Everything that keeps the benchmark honest: formatting, lints, the unit
# tests, and a smoke run (1 s phases, not for numbers) whose result file
# must match BENCHMARK.json name for name.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --quiet --release --manifest-path "$manifest"
benchmark/run.sh --seconds 2 --out benchmark/out/smoke
benchmark/run.sh check benchmark/out/smoke/result.json
