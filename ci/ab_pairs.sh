#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the protocol
# every speed claim in this repo is judged by (choosing-metrics section 8,
# README "Performance"). This header is the protocol's one description.
#
#   ci/ab_pairs.sh [--aa N] <parent-tree> <change-tree> <workload> <pairs> [seconds] [seed]
#
# Each tree is a checkout holding benchmark/run.sh (the parent one a
# `git clone` of the parent commit, e.g. under /root/scratch); each builds
# into its own <tree>/benchmark/target (run.sh builds before it times
# anything, so the first pair pays for the build but does not measure it).
# A pair is one `--trace 0` run of each tree, and pairs alternate which tree
# runs first. Prints every pair, then for each end-to-end metric both
# medians and quartiles, the median gap, the pairs the change won (ties
# count for neither) and the parent's inter-quartile distance. A gain may be
# claimed when the change wins at least nine pairs in ten and the median gap
# exceeds that distance. Use a seed that was not used while the change was
# written. Every pair made is printed: report them all. Ten pairs of
# serve_k24 at the default 10 s take ~6 min.
#
# --aa N first runs N pairs of the parent tree against itself (same binary
# on both sides; the second side is printed as `again` and takes turns at
# running first, like the change does) and prints, beside each A/B verdict,
# what the instrument reads when nothing changed: the A/A median gap, the
# widest single-pair gap and the pairs `again` "won". An A/B gap inside the
# A/A spread is not a result.
set -euo pipefail

aa=0
if [[ "${1:-}" == --aa ]]; then
    aa="${2:?--aa needs a pair count}"
    shift 2
fi
if (($# < 4)); then
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//p}' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
seconds="${5:-10}"
seed="${6:-1}"

metrics=(setup_s wall_s pkts_per_s peak_rss_mb)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run_side() { # run_side <tree> -> the result line
    CARGO_TARGET_DIR="$1/benchmark/target" bash "$1/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1
}

field() { # field <result line> <metric>
    sed -n "s/.*\"$2\": {\"value\": \([-+0-9.eE]*\).*/\1/p" <<<"$1"
}

# Runs <n> alternating pairs of <tree p> and <tree c>, prints each, and
# appends every metric to $tmp/<tag>.{p,c}.<metric>.
run_pairs() { # run_pairs <tag> <tree p> <tree c> <n> <p label> <c label>
    local tag="$1" tree_p="$2" tree_c="$3" n="$4" i first p c side line m
    printf '%-4s %-7s %12s %12s %14s %14s %10s %10s\n' \
        pair first "$5_wall" "$6_wall" "$5_pkts" "$6_pkts" p_rss_mb c_rss_mb
    for ((i = 1; i <= n; i++)); do
        if ((i % 2)); then
            first="$5"
            p="$(run_side "$tree_p")"
            c="$(run_side "$tree_c")"
        else
            first="$6"
            c="$(run_side "$tree_c")"
            p="$(run_side "$tree_p")"
        fi
        for side in p c; do
            line="${!side}"
            if [[ "$line" != *'"correct": true'* || "$line" != *'"failed": 0,'* ]]; then
                echo "error: $tag pair $i: a run was incorrect or had failed flows: $line" >&2
                exit 1
            fi
            for m in "${metrics[@]}"; do
                field "$line" "$m" >>"$tmp/$tag.$side.$m"
            done
        done
        printf '%-4s %-7s %12.6f %12.6f %14.1f %14.1f %10.3f %10.3f\n' "$i" "$first" \
            "$(field "$p" wall_s)" "$(field "$c" wall_s)" \
            "$(field "$p" pkts_per_s)" "$(field "$c" pkts_per_s)" \
            "$(field "$p" peak_rss_mb)" "$(field "$c" peak_rss_mb)"
    done
}

echo "workload $workload  seed $seed  seconds $seconds  pairs $pairs  load $(cut -d' ' -f1-3 /proc/loadavg)"
if ((aa > 0)); then
    echo "A/A: $aa pairs of the parent against itself"
    run_pairs aa "$parent" "$parent" "$aa" parent again
    echo
fi
run_pairs ab "$parent" "$change" "$pairs" parent change

# Quartiles by linear interpolation between order statistics (the
# "inclusive" method), median likewise.
summary() { # summary <metric> <higher|lower>
    paste "$tmp/ab.p.$1" "$tmp/ab.c.$1" | awk -v name="$1" -v better="$2" -v aa="$aa" -v aafile=<(
        ((aa > 0)) && paste "$tmp/aa.p.$1" "$tmp/aa.c.$1"
    ) '
        function q(a, n, f,    h, lo) {
            h = (n - 1) * f; lo = int(h)
            return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
        }
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        }
        function won(x, y) { return y != x && ((better == "lower") == (y < x)) }
        {
            n++; p[n] = $1; c[n] = $2
            if (won($1, $2)) wins++
            if ($1 == $2) ties++
        }
        END {
            sort(p, n); sort(c, n)
            pm = q(p, n, .5); cm = q(c, n, .5)
            printf "%-12s parent median %.6g [q1 %.6g, q3 %.6g]  change median %.6g [q1 %.6g, q3 %.6g]\n", \
                name, pm, q(p, n, .25), q(p, n, .75), cm, q(c, n, .25), q(c, n, .75)
            printf "%-12s gap %+.6g (%+.2f %% of parent)  change won %d of %d pairs (%d ties)  parent IQR %.6g\n", \
                "", cm - pm, 100 * (cm - pm) / pm, wins, n, ties, q(p, n, .75) - q(p, n, .25)
            if (aa > 0) {
                while ((getline line < aafile) > 0) {
                    split(line, f, "\t"); m++; a[m] = f[1]; b[m] = f[2]
                    if (won(f[1], f[2])) awins++
                    g = 100 * (f[2] - f[1]) / f[1]; if (g < 0) g = -g
                    if (g > widest) widest = g
                }
                sort(a, m); sort(b, m)
                am = q(a, m, .5)
                printf "%-12s A/A (parent twice) median gap %+.2f %%  widest pair gap %.2f %%  side `again` won %d of %d\n", \
                    "", 100 * (q(b, m, .5) - am) / am, widest, awins, m
            }
        }'
}
echo
summary setup_s lower
summary wall_s lower
summary pkts_per_s higher
summary peak_rss_mb lower
