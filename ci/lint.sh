#!/usr/bin/env sh
# CI stage: lints. Clippy runs with -D warnings across every target (no
# lint baseline — the tree is clippy-clean, keep it that way), the
# examples must at least type-check, and so must the benchmark harness in
# perfbench/ (a workspace of its own, so the workspace commands above
# never compile it).
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo check --examples"
cargo check --examples

echo "==> cargo check --manifest-path perfbench/Cargo.toml"
cargo check --manifest-path perfbench/Cargo.toml
