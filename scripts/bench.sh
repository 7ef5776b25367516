#!/bin/sh
# Run the learning-engine benchmarks and record them as JSON, one
# object per benchmark: {"name", "iterations", "ns_per_op",
# "bytes_per_op", "allocs_per_op", "metrics": {...}}.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=5x scripts/bench.sh BENCH_PR3.json
#   BENCHTIME=5x scripts/bench.sh BENCH_PR4.json
#
# Besides the timing benchmarks, the run records the streaming-vs-batch
# campaign memory benchmark (BenchmarkCampaignMemory): its
# final_live_MB metric must stay flat for stream/* across the 10× slot
# jump and grow linearly for batch/*. It always runs at -benchtime=1x —
# one campaign per variant is the measurement; iterating would only
# repeat it.
#
# PR5 adds the telemetry-overhead pair — BenchmarkCampaignParallel
# (nil metrics bundle, the Nop path) against
# BenchmarkCampaignParallelTelemetry (live registry + decision trace):
# the Telemetry variant's ns_per_op must stay within 3% of the
# baseline. The internal/telemetry record-path benchmarks must report
# 0 allocs/op for CounterInc and HistogramObserve.
#
# The fleet-scaling sweep (BenchmarkCampaignFleet) runs indexed oracle
# campaigns from 4 to 100k terminals. Acceptance: records/s roughly
# flat as the fleet grows. Older BENCH files also carry linear-scan
# rows, measured with a campaign path since removed. The sweep always
# runs at -benchtime=2x — each iteration is a whole campaign, and the
# 100k-terminal variants take minutes each.
#
# PR10 adds the online-inference serve benchmark
# (BenchmarkPredictServe, BENCH_PR10.json): one Rank call against a
# warm forest through the pooled scratch — ClusterInto, VectorInto,
# RankClassesInto. Acceptance: 0 allocs/op; the serve path must never
# pressure the campaign workers' allocator.
#
# BenchmarkSchedulerSetup times scheduler.NewGlobal at 1k and 10k
# terminals (per-terminal GSO exclusion geometry dominates); the fleet
# sweep builds its scheduler outside the timer, so set-up cost is
# recorded here, with allocs/op and ns/terminal.
#
# PR8 adds the snapshot-engine benchmarks (BENCH_PR8.json):
# BenchmarkSnapshot fresh/warm (warm must report 0 allocs/op — the
# pooled steady state), BenchmarkSnapshotParallel at 2/4/8 workers
# (byte-identical output at every width; the speedup needs real
# cores), and BenchmarkSnapshotIndexRebuild (rebuild must report
# 0 allocs/op). The fleet sweep gains the parsnap ablation group.
#
# Only the standard library and POSIX awk are assumed. The raw `go
# test -bench` lines pass through on stderr so a terminal run stays
# readable.
set -eu

out=${1:-bench.json}
benchtime=${BENCHTIME:-5x}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

{
    go test ./internal/ml -run='^$' -bench='^BenchmarkForest' \
        -benchmem -benchtime="$benchtime"
    go test . -run='^$' -bench='^BenchmarkFig8TopK' \
        -benchmem -benchtime="$benchtime"
    go test . -run='^$' -bench='^BenchmarkCampaignMemory' \
        -benchmem -benchtime=1x
    go test . -run='^$' -bench='^BenchmarkCampaign(Serial|Parallel(Telemetry)?)$' \
        -benchmem -benchtime="$benchtime"
    go test . -run='^$' -bench='^BenchmarkCampaignFleet$' \
        -benchmem -benchtime=2x -timeout=60m
    go test . -run='^$' -bench='^BenchmarkSchedulerSetup$' \
        -benchmem -benchtime="$benchtime"
    go test ./internal/constellation -run='^$' -bench='^BenchmarkSnapshot' \
        -benchmem -benchtime="$benchtime"
    go test . -run='^$' -bench='^BenchmarkSchedulerAllocate$' \
        -benchmem -benchtime="$benchtime"
    go test ./internal/telemetry -run='^$' -bench=. \
        -benchmem -benchtime="$benchtime"
    go test ./internal/predict -run='^$' -bench='^BenchmarkPredictServe$' \
        -benchmem -benchtime="$benchtime"
} | tee "$tmp" >&2

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
    iters = $2
    ns = ""; bytes = ""; allocs = ""; metrics = ""
    for (i = 3; i < NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op")           ns = v
        else if (u == "B/op")       bytes = v
        else if (u == "allocs/op")  allocs = v
        else {
            gsub(/"/, "", u)
            metrics = metrics (metrics == "" ? "" : ", ") \
                "\"" u "\": " v
        }
    }
    line = "  {\"name\": \"" name "\", \"iterations\": " iters
    if (ns != "")     line = line ", \"ns_per_op\": " ns
    if (bytes != "")  line = line ", \"bytes_per_op\": " bytes
    if (allocs != "") line = line ", \"allocs_per_op\": " allocs
    if (metrics != "") line = line ", \"metrics\": {" metrics "}"
    line = line "}"
    lines[n++] = line
}
END {
    print "["
    for (i = 0; i < n; i++) print lines[i] (i < n - 1 ? "," : "")
    print "]"
}
' "$tmp" > "$out"
echo "wrote $out" >&2
