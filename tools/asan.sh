#!/usr/bin/env bash
# The AddressSanitizer tier: every test of the workspace, built with
# `-Zsanitizer=address` on the nightly toolchain. LeakSanitizer runs with
# it, so a test that leaks fails its binary like a memory error does.
# Exits non-zero when any test fails or any sanitizer reports.
#
# Usage: tools/asan.sh [extra `cargo test` arguments]
#   The instrumented build goes to $CARGO_TARGET_DIR, by default
#   target/asan, so it never mixes with the plain build.
# Needs: the nightly toolchain (its sanitizer runtimes ship with it); no
# network.
set -euo pipefail
cd "$(dirname "$0")/.."
export RUSTFLAGS="-Zsanitizer=address" RUSTDOCFLAGS="-Zsanitizer=address"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/asan}"
exec cargo +nightly test --offline --target x86_64-unknown-linux-gnu --workspace --no-fail-fast "$@"
