#!/usr/bin/env bash
# Lint, test and smoke the benchmark package. Run from anywhere; it is
# what CI would run if this package were allowed to edit .github/.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
# Two seconds per workload, untraced and traced: checks the oracles and
# the output contract, not the numbers.
cargo run --release --offline --manifest-path "$manifest" -- run all --quick --traced
