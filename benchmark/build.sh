#!/usr/bin/env bash
# Builds the workspace libraries and the benchmark binary with bare rustc
# against the repository's dependency stubs: no cargo, no registry, no
# network. The same path is used everywhere so numbers are comparable.
#
# Output goes to $CARGO_TARGET_DIR/p2kvs-benchmark when CARGO_TARGET_DIR is
# set (relative to the caller's directory, as cargo reads it), otherwise to
# benchmark/target/. Prints the path of the binary's directory on stdout.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
# The live stubs the verify recipe maintains, read-only: later changes may
# extend them.
STUBS="$ROOT/.claude/skills/verify/drive/stubs"
if [ ! -d "$STUBS" ]; then
    echo "build.sh: $STUBS is missing: not a checkout of the repository" >&2
    exit 1
fi

# Workspace libraries the benchmark links, in dependency order.
CRATES=(util obs storage lsmkv wtiger kvell core)

for c in "${CRATES[@]}"; do
    if [ ! -f "$ROOT/crates/$c/src/lib.rs" ]; then
        echo "build.sh: $ROOT/crates/$c is missing: not a checkout of the repository" >&2
        exit 1
    fi
done

if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    mkdir -p "$CARGO_TARGET_DIR"
    OUT="$(cd "$CARGO_TARGET_DIR" && pwd)/p2kvs-benchmark"
else
    OUT="$HERE/target"
fi

RUSTC_VERSION="$(rustc --version)"
STAMP="$OUT/.built"
fresh() {
    [ -x "$OUT/p2kvs-benchmark" ] && [ -f "$STAMP" ] || return 1
    [ "$(cat "$STAMP")" = "$RUSTC_VERSION" ] || return 1
    local newer
    newer="$(find "$STUBS" "$HERE/src" "${CRATES[@]/#/$ROOT/crates/}" \
        \( -name '*.rs' -o -name Cargo.toml \) -newer "$STAMP" -print -quit)"
    [ -z "$newer" ]
}

if ! fresh; then
    mkdir -p "$OUT"
    rm -f "$STAMP"
    RC=(rustc --edition 2021 -O -L "$OUT")

    # `key = value` lines of one table of a manifest.
    table() { # <manifest> <table>
        awk -v t="[$2]" '$0 == t {on = 1; next} /^\[/ {on = 0} on && /=/' "$1"
    }
    # The library name rustc should give a package.
    lib_name() { # <manifest>
        table "$1" package | sed -n 's/^name *= *"\(.*\)"/\1/p' | tr - _
    }
    # One --extern per non-optional entry of [dependencies], so a new
    # intra-workspace dependency needs no change here.
    externs() { # <manifest>
        table "$1" dependencies | grep -v 'optional *= *true' |
            sed 's/[ .=].*//' | tr - _ |
            while read -r dep; do printf -- '--extern\n%s=%s/lib%s.rlib\n' "$dep" "$OUT" "$dep"; done
    }

    for stub in "$STUBS"/*.rs; do
        name="$(basename "$stub" .rs)"
        "${RC[@]}" -A warnings "$stub" --crate-name "$name" --crate-type lib -o "$OUT/lib$name.rlib"
    done
    for c in "${CRATES[@]}"; do
        manifest="$ROOT/crates/$c/Cargo.toml"
        name="$(lib_name "$manifest")"
        mapfile -t ext < <(externs "$manifest")
        "${RC[@]}" -A warnings "$ROOT/crates/$c/src/lib.rs" --crate-name "$name" --crate-type lib \
            "${ext[@]}" -o "$OUT/lib$name.rlib"
    done
    "${RC[@]}" "$HERE/src/main.rs" --crate-name p2kvs_benchmark \
        --extern "p2kvs=$OUT/libp2kvs.rlib" \
        --extern "p2kvs_util=$OUT/libp2kvs_util.rlib" \
        --extern "p2kvs_storage=$OUT/libp2kvs_storage.rlib" \
        --extern "lsmkv=$OUT/liblsmkv.rlib" \
        -o "$OUT/p2kvs-benchmark"
    echo "$RUSTC_VERSION" > "$STAMP"
fi

echo "$OUT"
