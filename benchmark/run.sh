#!/usr/bin/env bash
# The repository's one benchmark. Builds (benchmark/build.sh) and runs
# p2kvs-benchmark; see benchmark/README.md.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; the last
#                                   line of stdout is the result as JSON
#   run.sh [--seed N] [--seconds S] [--no-trace] [--repeat K] [--out FILE]
#                                   every gated workload (or the one named), untraced
#                                   and traced, K seeds starting at N; --out
#                                   appends one JSON line per run to FILE
#   run.sh --dump-trace ...         also write the traced pass's spans under
#                                   benchmark/out/
#   run.sh --selftest               check the benchmark's own machinery
#   run.sh --compare OLD NEW        verdict per workload x end-to-end metric
#   run.sh --spread FILE            medians and quartile spread of FILE's runs
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
# The workloads the pipeline gates; read_hot runs only when named (README,
# "Repeatability").
WORKLOADS=(fill read_cold mixed)

workload="" seed=1 seconds=30 trace="" repeat=1 out="" dump=0 no_trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --no-trace) no_trace=1; shift ;;
        --repeat) repeat="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --dump-trace) dump=1; shift ;;
        --selftest) mode=selftest; shift ;;
        --compare) exec python3 "$HERE/compare.py" compare "$ROOT/BENCHMARK.json" "$2" "$3" ;;
        --spread) exec python3 "$HERE/compare.py" spread "$ROOT/BENCHMARK.json" "$2" ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Both rescale what is measured; the binary refuses to start with either.
unset P2KVS_SIM_TIME_SCALE P2KVS_SCALE

BIN="$("$HERE/build.sh")/p2kvs-benchmark"
export P2KVS_BENCH_RUSTC="$(rustc --version)"
export P2KVS_BENCH_REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"

if [ "${mode:-}" = selftest ]; then
    exec "$BIN" --selftest
fi

# One run. Prints the binary's output; with --out also appends the result
# line, tagged with what produced it, to that file.
run_one() { # <workload> <seed> <trace>
    local args=(--workload "$1" --seed "$2" --seconds "$seconds" --trace "$3")
    if [ "$dump" = 1 ] && [ "$3" = 1 ]; then
        mkdir -p "$HERE/out"
        args+=(--dump-trace "$HERE/out/trace-$1-seed$2.tsv")
    fi
    if [ -z "$out" ]; then
        "$BIN" "${args[@]}"
        return
    fi
    local log status=0
    log="$("$BIN" "${args[@]}")" || status=$?
    printf '%s\n' "$log"
    printf '{"workload": "%s", "seed": %s, "seconds": %s, "trace": %s, "rev": "%s", "result": %s}\n' \
        "$1" "$2" "$seconds" "$3" "$P2KVS_BENCH_REV" "$(printf '%s\n' "$log" | tail -n 1)" >> "$out"
    return "$status"
}

if [ -n "$workload" ] && [ -n "$trace" ] && [ "$repeat" = 1 ]; then
    run_one "$workload" "$seed" "$trace"
    exit
fi

[ -n "$workload" ] && WORKLOADS=("$workload")
traces=(0 1)
[ "$no_trace" = 1 ] && traces=(0)
[ -n "$trace" ] && traces=("$trace")
status=0
for ((s = seed; s < seed + repeat; s++)); do
    for w in "${WORKLOADS[@]}"; do
        for t in "${traces[@]}"; do
            run_one "$w" "$s" "$t" || status=1
        done
    done
done
exit "$status"
