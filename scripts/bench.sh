#!/bin/sh
# scripts/bench.sh — time the full figure sweep sequentially and in
# parallel, verify the artifacts are byte-identical, time simlint over
# the whole module three ways (uncached, cold cache, warm cache —
# checking the cached findings match the uncached ones byte for byte),
# and record the results in BENCH_sweeps.json (wall-clock seconds and
# grid points per second for each worker count, plus simlint timings
# and the warm-cache hit rate). Also times the model-guided pruned
# sweep (figures -fast) with its simulated-cell fraction, the
# closed-form model's raw points/sec, the persistent surface
# store cold/warm (byte-comparing the warm artifact tree against the
# cold and storeless ones), the full simmut mutation score with
# its wall-clock seconds, and the characterization service under load
# (single and batch queries against a live loopback memserve).
#
# Run it from the repository root: ./scripts/bench.sh [jobs]
# `jobs` defaults to the host's logical CPU count.
set -eu

cd "$(dirname "$0")/.."

JOBS="${1:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"
OUT="BENCH_sweeps.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== building figures =="
go build -o "$TMP/figures" ./cmd/figures

echo "== building simlint =="
go build -o "$TMP/simlint" ./cmd/simlint

# run DIR JOBS [extra flags] — run the full sweep (surface store off,
# so the simulator itself is what gets timed), print elapsed seconds
# on stdout, and leave the "swept N grid points" count in DIR/points.
run() {
    dir="$1" jobs="$2"; shift 2
    start=$(date +%s.%N)
    "$TMP/figures" -all -out "$dir" -j "$jobs" -store "" "$@" \
        >"$dir.stdout" 2>"$dir.stderr"
    end=$(date +%s.%N)
    sed -n 's/^swept \([0-9]*\) grid points$/\1/p' "$dir.stderr" >"$dir.points"
    echo "$start $end" | awk '{printf "%.2f", $2 - $1}'
}

echo "== figures -all -j 1 =="
T1=$(run "$TMP/seq" 1)
echo "   ${T1}s"

echo "== figures -all -j $JOBS =="
TN=$(run "$TMP/par" "$JOBS")
echo "   ${TN}s"

# Tracing overhead: the same parallel sweep with the probe tracer
# enabled on every machine (-trace) against the tracing-off run
# above. The disabled path's cost is the guard test alone and must
# stay within a few percent.
echo "== figures -all -j $JOBS -trace =="
start=$(date +%s.%N)
"$TMP/figures" -all -trace -out "$TMP/traced" -j "$JOBS" -store "" \
    >"$TMP/traced.stdout" 2>"$TMP/traced.stderr"
end=$(date +%s.%N)
TTRACE=$(echo "$start $end" | awk '{printf "%.2f", $2 - $1}')
echo "   ${TTRACE}s"

# The analytic fast path: the same figure sweep with confident cells
# filled from the closed-form model and only the pruner's uncertain
# cells simulated. The stderr line reports the simulated fraction.
echo "== figures -all -fast -j $JOBS =="
start=$(date +%s.%N)
"$TMP/figures" -all -fast -out "$TMP/pruned" -j "$JOBS" -store "" \
    >"$TMP/pruned.stdout" 2>"$TMP/pruned.stderr"
end=$(date +%s.%N)
TFAST=$(echo "$start $end" | awk '{printf "%.2f", $2 - $1}')
SIMFRAC=$(sed -n 's/^fast sweep: simulated \([0-9]*\) of \([0-9]*\) cells.*/\1 \2/p' \
    "$TMP/pruned.stderr" | awk '{printf "%.3f", $1 / $2}')
echo "   ${TFAST}s, simulated fraction $SIMFRAC"

# The persistent surface store: a cold store-backed run (simulates
# everything, writes every artifact back) followed by a warm run that
# serves the whole figure set from the store. The warm artifact tree
# and tables must be byte-identical to the cold ones.
echo "== figures -all -j $JOBS -store (cold) =="
start=$(date +%s.%N)
"$TMP/figures" -all -out "$TMP/storecold" -j "$JOBS" -store "$TMP/sweepstore" \
    >"$TMP/storecold.stdout" 2>"$TMP/storecold.stderr"
end=$(date +%s.%N)
TSCOLD=$(echo "$start $end" | awk '{printf "%.2f", $2 - $1}')
echo "   ${TSCOLD}s"

echo "== figures -all -j $JOBS -store (warm) =="
start=$(date +%s.%N)
"$TMP/figures" -all -out "$TMP/storewarm" -j "$JOBS" -store "$TMP/sweepstore" \
    >"$TMP/storewarm.stdout" 2>"$TMP/storewarm.stderr"
end=$(date +%s.%N)
TSWARM=$(echo "$start $end" | awk '{printf "%.2f", $2 - $1}')
SHITRATE=$(sed -n 's/^store: .*hit rate \([0-9.]*\),.*/\1/p' "$TMP/storewarm.stderr")
echo "   ${TSWARM}s, hit rate $SHITRATE"

# Closed-form throughput: the model alone over the full three-machine
# load grid, measured by the speed test (points/sec over ~1k cells).
echo "== analytic model throughput =="
go test ./internal/analytic/ -run TestAnalyticSpeed -v >"$TMP/analytic.stdout"
APPS=$(sed -n 's|.*(\([0-9][0-9]*\) points/sec).*|\1|p' "$TMP/analytic.stdout" | head -1)
echo "   ${APPS} points/sec"

echo "== verifying determinism =="
diff -r "$TMP/seq" "$TMP/par"
cmp "$TMP/seq.stdout" "$TMP/par.stdout"
diff -r "$TMP/par" "$TMP/traced"
diff -r "$TMP/storecold" "$TMP/storewarm"
cmp "$TMP/storecold.stdout" "$TMP/storewarm.stdout"
diff -r "$TMP/seq" "$TMP/storecold"
# The committed artifacts too: a host-side optimisation must leave
# every figure byte-identical to out/ (simlint.sarif is check.sh's).
diff -r -x simlint.sarif "$TMP/seq" out
echo "   artifacts byte-identical across worker counts, tracing, and store modes, and to out/"

echo "== simlint ./... (uncached) =="
start=$(date +%s.%N)
"$TMP/simlint" -cache=false ./... >"$TMP/lint_uncached.stdout"
end=$(date +%s.%N)
TLINT=$(echo "$start $end" | awk '{printf "%.2f", $2 - $1}')
echo "   ${TLINT}s"

echo "== simlint ./... (cold cache) =="
start=$(date +%s.%N)
"$TMP/simlint" -v -cache-dir "$TMP/simlintcache" ./... >"$TMP/lint_cold.stdout" \
    2>"$TMP/lint_cold.stderr"
end=$(date +%s.%N)
TCOLD=$(echo "$start $end" | awk '{printf "%.2f", $2 - $1}')
echo "   ${TCOLD}s"

echo "== simlint ./... (warm cache) =="
start=$(date +%s.%N)
"$TMP/simlint" -v -cache-dir "$TMP/simlintcache" ./... >"$TMP/lint_warm.stdout" \
    2>"$TMP/lint_warm.stderr"
end=$(date +%s.%N)
TWARM=$(echo "$start $end" | awk '{printf "%.2f", $2 - $1}')
echo "   ${TWARM}s"

# Cached findings must be byte-identical to uncached ones, and the
# warm run must be served entirely from cache.
cmp "$TMP/lint_uncached.stdout" "$TMP/lint_cold.stdout"
cmp "$TMP/lint_uncached.stdout" "$TMP/lint_warm.stdout"
HITRATE=$(sed -n 's|^simlint: cache: \([0-9]*\)/\([0-9]*\) package hits.*|\1 \2|p' \
    "$TMP/lint_warm.stderr" | awk '{printf "%.3f", $1 / $2}')
echo "   warm hit rate: $HITRATE, findings byte-identical"

# Mutation score: the full simmut sweep over the default packages,
# through the repo's content-hash cache (an unchanged tree re-scores
# in seconds). Survivors don't fail the benchmark — the score is the
# measurement; check.sh is the gate.
echo "== simmut (mutation score) =="
go build -o "$TMP/simmut" ./cmd/simmut
"$TMP/simmut" -json >"$TMP/simmut.json" || true
MUTSCORE=$(sed -n 's/^  "score": \([0-9.]*\),*$/\1/p' "$TMP/simmut.json")
MUTSECS=$(sed -n 's/^  "seconds": \([0-9.]*\),*$/\1/p' "$TMP/simmut.json")
echo "   score $MUTSCORE in ${MUTSECS}s"

# The characterization service under load: go test -bench drives a
# live loopback HTTP server with single and batch (N=64) bandwidth
# queries at client parallelism 1/4/16. serve.qps and serve.p99_us
# come from the single-query run at parallelism 16; serve.batch_qps
# is the per-query throughput the 64-element batch endpoint reaches
# at the same parallelism.
echo "== memserve load test =="
go test -bench 'BenchmarkServe' -benchtime 1s -run '^$' ./internal/serve \
    >"$TMP/serve.bench"

# metric FILE PATTERN UNIT — the value immediately preceding UNIT on
# the line matching PATTERN in go test -bench output.
metric() {
    awk -v pat="$2" -v unit="$3" \
        '$0 ~ pat { for (i = 2; i < NF; i++) if ($(i+1) == unit) v = $i } END { printf "%s", v }' "$1"
}
SQPS=$(metric "$TMP/serve.bench" "BenchmarkServeSingle/p16" "qps")
SP99=$(metric "$TMP/serve.bench" "BenchmarkServeSingle/p16" "p99_us")
BQPS=$(metric "$TMP/serve.bench" "BenchmarkServeBatch/p16" "qps")
echo "   single ${SQPS} qps (p99 ${SP99}us), batched ${BQPS} qps"

POINTS=$(cat "$TMP/seq.points")
awk -v t1="$T1" -v tn="$TN" -v ttrace="$TTRACE" -v jobs="$JOBS" \
    -v points="$POINTS" -v tlint="$TLINT" \
    -v tcold="$TCOLD" -v twarm="$TWARM" -v hitrate="$HITRATE" \
    -v tfast="$TFAST" -v simfrac="$SIMFRAC" -v apps="$APPS" \
    -v tscold="$TSCOLD" -v tswarm="$TSWARM" -v shitrate="$SHITRATE" \
    -v mutscore="$MUTSCORE" -v mutsecs="$MUTSECS" \
    -v sqps="$SQPS" -v sp99="$SP99" -v bqps="$BQPS" \
    -v cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"figures -all (figures 1-17 + tables A-C)\",\n"
    printf "  \"host_cpus\": %d,\n", cpus
    printf "  \"grid_points\": %d,\n", points
    printf "  \"seq\": {\"jobs\": 1, \"seconds\": %.2f, \"points_per_sec\": %.1f},\n", t1, points / t1
    printf "  \"par\": {\"jobs\": %d, \"seconds\": %.2f, \"points_per_sec\": %.1f},\n", jobs, tn, points / tn
    printf "  \"traced\": {\"jobs\": %d, \"seconds\": %.2f, \"overhead_vs_par\": %.3f},\n", jobs, ttrace, ttrace / tn - 1
    if (jobs > 1)
        printf "  \"speedup\": %.2f,\n", t1 / tn
    printf "  \"speedup_note\": \"wall-clock seq/par on this host; omitted when the parallel run also used one worker\",\n"
    printf "  \"pruned\": {\"jobs\": %d, \"seconds\": %.2f, \"cells_simulated_frac\": %.3f},\n", jobs, tfast, simfrac
    printf "  \"analytic\": {\"points_per_sec\": %d},\n", apps
    printf "  \"store\": {\"cold_seconds\": %.2f, \"warm_seconds\": %.2f, \"hit_rate\": %.3f, \"warm_speedup_vs_pruned\": %.1f},\n", tscold, tswarm, shitrate, tfast / tswarm
    printf "  \"simlint\": {\"target\": \"./...\", \"seconds\": %.2f, \"cold_seconds\": %.2f, \"warm_seconds\": %.2f, \"cache_hit_rate\": %.3f},\n", tlint, tcold, twarm, hitrate
    printf "  \"serve\": {\"qps\": %.0f, \"batch_qps\": %.0f, \"p99_us\": %.1f},\n", sqps, bqps, sp99
    printf "  \"mutation\": {\"score\": %.3f, \"seconds\": %.1f}\n", mutscore, mutsecs
    printf "}\n"
}' >"$OUT"

echo "== $OUT =="
cat "$OUT"
