#!/bin/sh
# Same-host A/B of one criterion benchmark between two commits.
#
# Usage: tools/ab_criterion.sh PARENT CHANGE FILTER
#
# Exports each commit with `git archive` into its own temporary checkout,
# builds the `htm-bench` benches there offline with a separate target
# directory, then runs PAIRS alternating parent/change pairs of
# `cargo bench -- FILTER` (the side that goes first alternates from pair to
# pair, so a steady drift in host speed hits both sides alike). FILTER is
# the harness's substring filter, e.g.
# `simulator_throughput/intruder_test_scale_4p_fast-forward`; when the part
# before its first `/` names a bench target, only that target runs. Prints,
# per benchmark id that matched, each side's median `mean` (µs) over the
# pairs and the number of pairs the change won (lower is better).
#
# Environment: PAIRS (default 10), KEEP=1 to keep the temporary directory.
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT CHANGE FILTER" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
filter="$3"
pairs="${PAIRS:-10}"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_criterion.XXXXXX")
if [ "${KEEP:-0}" != 1 ]; then
    trap 'rm -rf "$tmp"' EXIT INT TERM
fi

target=${filter%%/*}
if [ -f "crates/bench/benches/$target.rs" ]; then
    set -- --bench "$target"
else
    set --
fi

for side in parent change; do
    eval "rev=\$$side"
    mkdir -p "$tmp/$side/src"
    git archive "$rev" | tar -x -C "$tmp/$side/src"
    echo "# building $side ($rev)" >&2
    (cd "$tmp/$side/src" && CARGO_TARGET_DIR="$tmp/$side/target" \
        cargo bench --offline --quiet -p htm-bench "$@" --no-run)
done

# Append "side pair id mean_us" lines for one run to results; the
# arguments after SIDE and PAIR select the bench target.
run_one() {
    side=$1
    pair=$2
    shift 2
    (cd "$tmp/$side/src" && CARGO_TARGET_DIR="$tmp/$side/target" \
        cargo bench --offline --quiet -p htm-bench "$@" -- "$filter") 2>/dev/null |
        awk -v side="$side" -v pair="$pair" '
            /^bench: / {
                id = $2; v = $4; unit = $5
                if (unit == "s") v *= 1e6
                else if (unit == "ms") v *= 1e3
                else if (unit == "ns") v /= 1e3
                print side, pair, id, v
            }' >> "$tmp/results"
}

: > "$tmp/results"
i=1
while [ "$i" -le "$pairs" ]; do
    echo "# pair $i/$pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run_one parent "$i" "$@"
        run_one change "$i" "$@"
    else
        run_one change "$i" "$@"
        run_one parent "$i" "$@"
    fi
    i=$((i + 1))
done

echo "# parent $parent"
echo "# change $change"
echo "# $pairs pairs, filter $filter, nproc $(nproc 2>/dev/null || echo unknown)"
awk -v pairs="$pairs" '
function median(list,    n, a, i, j, v) {
    n = split(list, a, " ")
    for (i = 2; i <= n; i++) {
        v = a[i]; j = i - 1
        while (j >= 1 && a[j] + 0 > v + 0) { a[j + 1] = a[j]; j-- }
        a[j + 1] = v
    }
    if (n % 2) return a[(n + 1) / 2] + 0
    return (a[n / 2] + a[n / 2 + 1]) / 2
}
{
    vals[$3 SUBSEP $1] = vals[$3 SUBSEP $1] " " $4
    val[$3 SUBSEP $1 SUBSEP $2] = $4
    if (!($3 in seen)) { seen[$3] = 1; ids[++n] = $3 }
}
END {
    printf "%-60s %14s %14s   %s\n", "benchmark", "parent_med_us", "change_med_us", "change_wins"
    for (k = 1; k <= n; k++) {
        id = ids[k]; wins = 0
        for (p = 1; p <= pairs; p++) {
            if (val[id SUBSEP "change" SUBSEP p] + 0 < val[id SUBSEP "parent" SUBSEP p] + 0) wins++
        }
        printf "%-60s %14.3f %14.3f   %d/%d\n", id,
            median(vals[id SUBSEP "parent"]), median(vals[id SUBSEP "change"]), wins, pairs
    }
}' "$tmp/results"
