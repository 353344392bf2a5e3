#!/bin/sh
# Regenerate BENCH_pdes.json from the pdes_scaling criterion bench.
#
# Usage: tools/bench_pdes.sh [output-file]
#
# Runs the engine matrix (hotspot + clustered at 64p and 256p on the
# default sharded fabric): fast-forward and shard-parallel, and records the
# honest wall-clock numbers for the host it ran on, together with the
# commit (`-dirty` when the tree had uncommitted changes), the host's core
# count and the bench command. Commit the numbers whichever engine wins;
# the point of the artifact is tracking the island engine's overhead, not
# advertising a speedup.
set -eu

out="${1:-BENCH_pdes.json}"
cd "$(dirname "$0")/.."

cmd="cargo bench -p htm-bench --bench pdes_scaling"
raw=$($cmd 2>/dev/null | grep '^bench: pdes_scaling/')

threads=$( (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -n1 )
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)

printf '%s\n' "$raw" | awk -v threads="$threads" -v commit="$commit" -v cmd="$cmd" '
function to_ms(v, u) {
    if (u == "ns") return v / 1e6
    if (u == "µs" || u == "us") return v / 1e3
    if (u == "ms") return v
    if (u == "s")  return v * 1e3
    return v
}
{
    # bench: pdes_scaling/<workload>_<procs>p_<engine> mean V U [min V U, max V U]
    id = $2
    sub("^pdes_scaling/", "", id)
    n = split(id, part, "_")
    engine = part[n]
    procs = part[n - 1]; sub("p$", "", procs)
    workload = part[1]
    for (i = 2; i <= n - 2; i++) workload = workload "_" part[i]
    mean = to_ms($4, $5)
    minv = $7; minu = $8; sub(",$", "", minu)
    maxv = $10; maxu = $11; sub("\\]$", "", maxu)
    cells[++c] = sprintf(\
        "    {\n      \"workload\": \"%s\",\n      \"procs\": %s,\n      \"engine\": \"%s\",\n      \"mean_ms\": %.6f,\n      \"min_ms\": %.6f,\n      \"max_ms\": %.6f\n    }",
        workload, procs, engine, mean, to_ms(minv, minu), to_ms(maxv, maxu))
}
END {
    print "{"
    print "  \"bench\": \"pdes_scaling\","
    print "  \"commit\": \"" commit "\","
    print "  \"command\": \"" cmd "\","
    print "  \"topology\": \"sharded directories (one bank per directory; crossbar, 2-cycle traversal)\","
    print "  \"gating\": \"clock-gate w0=8\","
    print "  \"workload_scale\": \"test\","
    print "  \"threads\": " threads ","
    print "  \"cells\": ["
    for (i = 1; i <= c; i++) printf "%s%s\n", cells[i], (i < c ? "," : "")
    print "  ]"
    print "}"
}' > "$out"

echo "wrote $out"
