#!/bin/sh
# Same-host A/B of the repository benchmark (perfbench) on two commits.
#
# Usage: tools/ab_perfbench.sh PARENT CHANGE [WORKLOAD...]
#
# Exports each commit with `git archive` into its own temporary checkout,
# builds perfbench there offline with a separate target directory, then
# runs PAIRS alternating parent/change pairs of `--trace 0` runs per
# workload (the side that goes first alternates from pair to pair, so a
# steady drift in host speed hits both sides alike). Prints, per workload
# and end-to-end metric of BENCHMARK.json, each side's median and
# quartiles and the number of pairs the change won, plus each side's
# failed-operation count.
#
# Environment: PAIRS (default 10), SECONDS_PER_RUN (default 30),
# SEED (default 1), KEEP=1 to keep the temporary directory.
# Default workloads: every workload of the change's BENCHMARK.json.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 PARENT CHANGE [WORKLOAD...]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
shift 2
pairs="${PAIRS:-10}"
seconds="${SECONDS_PER_RUN:-30}"
seed="${SEED:-1}"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_perfbench.XXXXXX")
if [ "${KEEP:-0}" != 1 ]; then
    trap 'rm -rf "$tmp"' EXIT INT TERM
fi

for side in parent change; do
    eval "rev=\$$side"
    mkdir -p "$tmp/$side/src"
    git archive "$rev" | tar -x -C "$tmp/$side/src"
    echo "# building $side ($rev)" >&2
    CARGO_TARGET_DIR="$tmp/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/src/perfbench/Cargo.toml"
done

bench="$tmp/change/src/BENCHMARK.json"
if [ $# -eq 0 ]; then
    set -- $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$bench")
fi
# One "name better" line per end-to-end metric.
sed -n 's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound".*/\1 \2/p' \
    "$bench" > "$tmp/metrics"

# Append "workload side pair metric value" lines for one run to results.
run_one() {
    out="$tmp/run.out"
    (cd "$tmp/$2/src" && "$tmp/$2/target/release/perfbench" --workload "$1" \
        --seed "$seed" --seconds "$seconds" --trace 0) > "$out"
    json=$(tail -n 1 "$out")
    failed=$(printf '%s\n' "$json" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')
    echo "$1 $2 $3 failed ${failed:-unknown}" >> "$tmp/results"
    while read -r name _; do
        value=$(printf '%s\n' "$json" |
            sed -n "s/.*\"$name\": {\"value\": \([-0-9.eE+]*\).*/\1/p")
        echo "$1 $2 $3 $name ${value:-nan}" >> "$tmp/results"
    done < "$tmp/metrics"
}

: > "$tmp/results"
i=1
while [ "$i" -le "$pairs" ]; do
    for w in "$@"; do
        echo "# pair $i/$pairs: $w" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run_one "$w" parent "$i"
            run_one "$w" change "$i"
        else
            run_one "$w" change "$i"
            run_one "$w" parent "$i"
        fi
    done
    i=$((i + 1))
done

echo "# parent $parent"
echo "# change $change"
echo "# $pairs pairs, seed $seed, ${seconds} s per run, nproc $(nproc 2>/dev/null || echo unknown)"
awk -v pairs="$pairs" '
function quantile(list, q,    n, a, i, pos, lo) {
    n = split(list, a, " ")
    # insertion sort: n is the pair count
    for (i = 2; i <= n; i++) {
        v = a[i]; j = i - 1
        while (j >= 1 && a[j] + 0 > v + 0) { a[j + 1] = a[j]; j-- }
        a[j + 1] = v
    }
    pos = 1 + q * (n - 1); lo = int(pos)
    if (lo >= n) return a[n] + 0
    return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
FILENAME == ARGV[1] { better[$1] = $2; order[++m] = $1; next }
{
    key = $1 SUBSEP $2 SUBSEP $4
    vals[key] = vals[key] " " $5
    val[$1 SUBSEP $2 SUBSEP $3 SUBSEP $4] = $5
    if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 }
}
END {
    for (k = 1; k <= nw; k++) {
        w = wl[k]
        printf "\n%s: failed ops parent %s, change %s\n", w,
            sumf(w, "parent"), sumf(w, "change")
        printf "  %-18s %14s %14s %14s   %14s %14s %14s   %s\n", "metric",
            "parent_q1", "parent_med", "parent_q3",
            "change_q1", "change_med", "change_q3", "change_wins"
        for (t = 1; t <= m; t++) {
            name = order[t]; wins = 0
            for (p = 1; p <= pairs; p++) {
                a = val[w SUBSEP "parent" SUBSEP p SUBSEP name] + 0
                b = val[w SUBSEP "change" SUBSEP p SUBSEP name] + 0
                if ((better[name] == "higher" && b > a) || (better[name] == "lower" && b < a)) wins++
            }
            pl = vals[w SUBSEP "parent" SUBSEP name]
            cl = vals[w SUBSEP "change" SUBSEP name]
            printf "  %-18s %14.6g %14.6g %14.6g   %14.6g %14.6g %14.6g   %d/%d (%s is better)\n",
                name, quantile(pl, 0.25), quantile(pl, 0.5), quantile(pl, 0.75),
                quantile(cl, 0.25), quantile(cl, 0.5), quantile(cl, 0.75),
                wins, pairs, better[name]
        }
    }
}
function sumf(w, side,    p, s) {
    s = 0
    for (p = 1; p <= pairs; p++) s += val[w SUBSEP side SUBSEP p SUBSEP "failed"]
    return s
}' "$tmp/metrics" "$tmp/results"
