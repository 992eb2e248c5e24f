#!/usr/bin/env bash
# The repo benchmark's one command. README.md beside this file explains the
# workloads and metrics.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One workload. The last line of stdout is the result JSON: the
#       end-to-end metrics with --trace 0, the per-layer metrics with
#       --trace 1. The human table goes to stderr.
#
#   benchmark/run.sh [--workload <name>]... [--seed <n>] [--seconds <s>] [--smoke]
#       No --trace: every workload (or the named ones), one at a time, each in
#       its own process: timed reps, then traced reps and layer kernels. Prints
#       every metric by name with its unit and writes benchmark/out/result.json,
#       which `compare` reads.
#
#   benchmark/run.sh compare <A.json> <B.json>
#
# Builds the benchmark package twice into separate target directories: the
# default features (end-to-end metrics) and --features profile (the engine's
# exact event counters, for the traced run). Honours CARGO_TARGET_DIR.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
out=benchmark/out

build() { # build <subdir> [cargo flags]
    CARGO_TARGET_DIR="$target/$1" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml "${@:2}" >&2
}
build default
build profile --features profile
plain="$target/default/release/tlt-benchmark"
profiled="$target/profile/release/tlt-benchmark"

if [[ "${1:-}" == compare ]]; then
    exec "$plain" "$@"
fi

# Split the arguments: --workload and --trace are routed here; seed and
# seconds get their defaults here so the result file can record them; the
# rest (--smoke, --reps, ...) passes through to the program.
workloads=()
trace=
seed=1
seconds=10
pass=()
while (($#)); do
    case "$1" in
    --workload)
        workloads+=("${2:?--workload needs a name}")
        shift 2
        ;;
    --trace)
        trace="${2:?--trace needs 0 or 1}"
        shift 2
        ;;
    --seed)
        seed="${2:?--seed needs a whole number}"
        shift 2
        ;;
    --seconds)
        seconds="${2:?--seconds needs a number}"
        shift 2
        ;;
    *)
        pass+=("$1")
        shift
        ;;
    esac
done
pass=(--seed "$seed" --seconds "$seconds" "${pass[@]}")

mkdir -p "$out"

# Timed reps, then traced reps of one workload; result lines go to files.
# The traced run needs the untraced numbers of the same workload and seed
# (tracing overhead, rep spread, cross-build digest check).
measure() { # measure <workload> <e2e line file> <layers line file | ->
    local w="$1" ref="$out/$1.untraced.json" status=0
    "$plain" run --workload "$w" "${pass[@]}" --trace 0 --out-dir "$out" --detail "$ref" >"$2" || status=$?
    if [[ "$3" != - ]]; then
        "$profiled" run --workload "$w" "${pass[@]}" --trace 1 --out-dir "$out" --reference "$ref" >"$3" || status=$?
    fi
    return "$status"
}

if [[ -n "$trace" ]]; then
    # One run for the driver: exactly one workload, one result line.
    if ((${#workloads[@]} != 1)); then
        echo "error: --trace needs exactly one --workload" >&2
        exit 2
    fi
    w="${workloads[0]}"
    case "$trace" in
    0) exec "$plain" run --workload "$w" "${pass[@]}" --trace 0 --out-dir "$out" ;;
    1)
        status=0
        measure "$w" /dev/null "$out/$w.layers.json" || status=$?
        cat "$out/$w.layers.json"
        exit "$status"
        ;;
    *)
        echo "error: --trace needs 0 or 1" >&2
        exit 2
        ;;
    esac
fi

# The whole suite.
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <("$plain" list | cut -f1)
fi
load="$(cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || echo unknown)"
status=0
for w in "${workloads[@]}"; do
    measure "$w" "$out/$w.e2e.json" "$out/$w.layers.json" || status=$?
done
"$plain" collect --out-dir "$out" \
    --meta "args=${pass[*]}" \
    --meta "nproc=$(nproc)" \
    --meta "cpu=$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)" \
    --meta "rustc=$(rustc --version)" \
    --meta "commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --meta "loadavg_at_start=$load" || status=$?
exit "$status"
