#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the protocol
# every speed claim in this repo is judged by (choosing-metrics section 8,
# README "Performance").
#
#   ci/ab_pairs.sh <parent-tree> <change-tree> <workload> <pairs> [seconds] [seed]
#
# Each tree is a checkout holding benchmark/run.sh; each builds into its own
# <tree>/benchmark/target (run.sh builds before it times anything, so the
# first pair pays for the build but does not measure it). A pair is one
# `--trace 0` run of each tree, and pairs alternate which tree runs first.
# Prints every pair, then for each end-to-end metric both medians and
# quartiles, the median gap, the pairs the change won (ties count for
# neither) and the parent's inter-quartile distance. A gain may be claimed
# when the change wins at least nine pairs in ten and the median gap exceeds
# that distance. Use a seed that was not used while the change was written.
# Every pair made is printed: report them all.
set -euo pipefail

if (($# < 4)); then
    sed -n '2,17s/^# \{0,1\}//p' "$0" >&2
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

echo "workload $workload  seed $seed  seconds $seconds  pairs $pairs  load $(cut -d' ' -f1-3 /proc/loadavg)"
printf '%-4s %-7s %12s %12s %14s %14s %10s %10s\n' \
    pair first parent_wall change_wall parent_pkts change_pkts p_rss_mb c_rss_mb
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        first=parent
        p="$(run_side "$parent")"
        c="$(run_side "$change")"
    else
        first=change
        c="$(run_side "$change")"
        p="$(run_side "$parent")"
    fi
    for side in p c; do
        line="${!side}"
        if [[ "$line" != *'"correct": true'* || "$line" != *'"failed": 0,'* ]]; then
            echo "error: pair $i: a run was incorrect or had failed flows: $line" >&2
            exit 1
        fi
        for m in "${metrics[@]}"; do
            field "$line" "$m" >>"$tmp/$side.$m"
        done
    done
    printf '%-4s %-7s %12.6f %12.6f %14.1f %14.1f %10.3f %10.3f\n' "$i" "$first" \
        "$(field "$p" wall_s)" "$(field "$c" wall_s)" \
        "$(field "$p" pkts_per_s)" "$(field "$c" pkts_per_s)" \
        "$(field "$p" peak_rss_mb)" "$(field "$c" peak_rss_mb)"
done

# Quartiles by linear interpolation between order statistics (the
# "inclusive" method), median likewise.
summary() { # summary <metric> <higher|lower>
    paste "$tmp/p.$1" "$tmp/c.$1" | awk -v name="$1" -v better="$2" '
        function q(a, n, f,    h, lo) {
            h = (n - 1) * f; lo = int(h)
            return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
        }
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        }
        {
            n++; p[n] = $1; c[n] = $2
            if ($2 != $1 && ((better == "lower") == ($2 < $1))) wins++
            if ($1 == $2) ties++
        }
        END {
            sort(p, n); sort(c, n)
            pm = q(p, n, .5); cm = q(c, n, .5)
            printf "%-12s parent median %.6g [q1 %.6g, q3 %.6g]  change median %.6g [q1 %.6g, q3 %.6g]\n", \
                name, pm, q(p, n, .25), q(p, n, .75), cm, q(c, n, .25), q(c, n, .75)
            printf "%-12s gap %+.6g (%+.2f %% of parent)  change won %d of %d pairs (%d ties)  parent IQR %.6g\n", \
                "", cm - pm, 100 * (cm - pm) / pm, wins, n, ties, q(p, n, .75) - q(p, n, .25)
        }'
}
echo
summary setup_s lower
summary wall_s lower
summary pkts_per_s higher
summary peak_rss_mb lower
