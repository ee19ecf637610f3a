#!/usr/bin/env bash
# Non-test lines of code per crate: every `src/**/*.rs`, counted up to
# (not including) the file's first `#[cfg(test)]` / `#[cfg(all(test, ..))]`.
# ROADMAP tracks this as a column; simplicity PRs quote it before and after.
# `examples/` and `benchmark/` (every `*.rs` under them) are printed below
# the total and are not part of it: they use the product, they are not it.
# Last come the field counts of the option structs a user configures:
# `P2KvsOptions`, and the options of the three engines (lsmkv's `Options`,
# `WtOptions`, `KvellOptions`), which ROADMAP tracks beside the lines, and
# the method count of `KvsEngine`, the contract an engine implements.
#
# Usage: tools/loc.sh [--files <crate>] [repo-root]
#   --files <crate>  per-file breakdown of one crate instead of the summary
#   repo-root        another checkout to count (default: this script's)
set -euo pipefail

files=""
if [ "${1:-}" = "--files" ]; then
    files="${2:?--files needs a crate name}"
    shift 2
fi
root="$(cd "${1:-"$(dirname "$0")/.."}" && pwd)"

# Prints the number of `pub` fields of `pub struct $2` in file $1.
fields() {
    awk -v s="$2" '$0 ~ "^pub struct " s " [{]" { f = 1; next }
        f && /^}/ { exit }
        f && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$1"
}

# Prints "<required>/<total>" methods of `pub trait $2` in file $1; a
# method is required when its signature ends in `;`, not in a body.
methods() {
    awk -v t="$2" '$0 ~ "^pub trait " t "[ :<{]" { f = 1; next }
        f && /^}/ { exit }
        f && /^    fn / { n++; sig = 1 }
        sig && /;$/ { req++; sig = 0 }
        sig && /[{]}?$/ { sig = 0 }
        END { printf "%d/%d", req, n }' "$1"
}

# Prints "<lines> <path>" for every source file under $1.
count() {
    find "$1" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        awk '/^[[:space:]]*#\[cfg\((all\()?test[,)]/ { exit } { n++ } END { printf "%d %s\n", n, FILENAME }' "$f"
    done
}

if [ -n "$files" ]; then
    count "$root/crates/$files/src" | awk -v root="$root/" '
        { sub(root, "", $2); printf "%6d  %s\n", $1, $2; total += $1 }
        END { printf "%6d  total\n", total }'
    exit 0
fi

total=0
for crate in "$root"/crates/*/ "$root"/tests/; do
    [ -d "$crate/src" ] || continue
    n=$(count "$crate/src" | awk '{ s += $1 } END { print s + 0 }')
    printf "%6d  %s\n" "$n" "${crate#"$root"/}"
    total=$((total + n))
done
printf "%6d  total\n" "$total"
for dir in examples benchmark; do
    printf "%6d  %s/ (not in the total)\n" "$(count "$root/$dir" | awk '{ s += $1 } END { print s + 0 }')" "$dir"
done
printf "%6d  fields of P2KvsOptions\n" "$(fields "$root/crates/core/src/store.rs" P2KvsOptions)"
printf "%6d  fields of lsmkv::Options\n" "$(fields "$root/crates/lsmkv/src/options.rs" Options)"
printf "%6d  fields of WtOptions\n" "$(fields "$root/crates/wtiger/src/store.rs" WtOptions)"
printf "%6d  fields of KvellOptions\n" "$(fields "$root/crates/kvell/src/store.rs" KvellOptions)"
printf "%6s  methods of KvsEngine (required/total)\n" "$(methods "$root/crates/core/src/engine.rs" KvsEngine)"
