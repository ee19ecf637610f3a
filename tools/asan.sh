#!/usr/bin/env bash
# The AddressSanitizer tier: the tests of the workspace, or of the packages
# named, built with `-Zsanitizer=address` on the nightly toolchain.
# LeakSanitizer runs with it, so a test that leaks fails its binary like a
# memory error does. Exits non-zero when any test fails or any sanitizer
# reports.
#
# Usage: tools/asan.sh [PACKAGE...] [extra `cargo test` arguments]
#   tools/asan.sh                          every package (--workspace)
#   tools/asan.sh p2kvs-storage lsmkv      those two packages only
#   tools/asan.sh lsmkv --lib sst::        arguments from the first one that
#                                          starts with `-` go to cargo test
#   The instrumented build goes to $CARGO_TARGET_DIR, by default
#   target/asan, so it never mixes with the plain build.
# Needs: the nightly toolchain (its sanitizer runtimes ship with it); no
# network.
set -euo pipefail
cd "$(dirname "$0")/.."
packages=()
while [ $# -gt 0 ] && [ "${1#-}" = "$1" ]; do
    packages+=(-p "$1")
    shift
done
[ ${#packages[@]} -eq 0 ] && packages=(--workspace)
export RUSTFLAGS="-Zsanitizer=address" RUSTDOCFLAGS="-Zsanitizer=address"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/asan}"
exec cargo +nightly test --offline --target x86_64-unknown-linux-gnu "${packages[@]}" --no-fail-fast "$@"
