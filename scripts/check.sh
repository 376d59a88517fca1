#!/bin/sh
# scripts/check.sh — the pre-commit gate (tier-1 plus static analysis).
#
# Runs, in order, failing fast:
#   1. go build ./...     — everything compiles
#   2. gofmt -l           — formatting is a hard failure
#   3. go vet ./...       — the stock analyzers
#   4. simlint ./...      — the domain analyzers (unit safety,
#                           cycle flow, ColdReset completeness,
#                           determinism, probe guard, attribution
#                           coverage, snapshot safety, lock
#                           domination, shared capture, atomic
#                           artifact writes), run through the
#                           incremental cache; any finding fails
#   5. simmut smoke       — a budget of 25 mutants over the unit and
#                           surface codecs, 25 over the serving layer
#                           and 25 over the probe counters; any
#                           survivor is a hard failure (the full sweep
#                           is `make mutate`)
#   6. go test -race ./...— the full suite under the race detector,
#                           then each native fuzz target for 3 s: the
#                           serving layer's (FuzzBandwidth, FuzzBatch,
#                           FuzzPlan) — no request body may panic the
#                           handler or draw a 5xx; its strict request
#                           decoder's (FuzzRequestDecode) — it declines
#                           a body or decodes what encoding/json does;
#                           the size parser's (FuzzParseBytes) — no
#                           panic, no negative size, and plain integers
#                           read as strconv.ParseInt reads them; and
#                           the two artifact decoders'
#                           (FuzzSurfaceSnapshot, FuzzManifest) — no
#                           input may panic, and accepted input
#                           re-marshals to its bytes
#   7. hot-primitive benchmarks — BenchmarkPrime, BenchmarkMeasure
#                           and BenchmarkTransfer run once each, so
#                           the host ns-per-access probes of a load
#                           cell and the ns-per-word probes of a
#                           transfer cell keep compiling and running;
#                           so do memserve's load benchmarks,
#                           BenchmarkServeSingle and BenchmarkServeBatch,
#                           and its in-process BenchmarkHandler
#   8. memtrace smoke     — one traced point end to end
#   9. analytic validation — memchar -validate on a reduced grid
#                           (working sets to 512K): every regime's
#                           mean divergence between the closed-form
#                           model and the simulator stays within 15%
#  10. warm-store smoke   — a full-grid figure (6) and a one-row
#                           copy-curve figure (11), each rendered twice
#                           against the same surface store; the warm
#                           run must reproduce the cold bytes exactly,
#                           and a -fast run completed by a full run
#                           over one store must match a storeless run
#  11. memserve smoke     — the characterization service on loopback
#                           against the warm store from step 10: one
#                           single and one batch bandwidth query must
#                           answer with a confidence tag, /healthz
#                           must return 2xx, and SIGINT must produce
#                           a clean (exit 0) shutdown
#  12. perfbench          — the benchmark's self-tests, then one short
#                           untraced sweep pass: every simulated cell
#                           must match the benchmark's bit-for-bit
#                           reference and its counter gate
#
# Run it from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== simlint =="
go run ./cmd/simlint ./...

echo "== simmut smoke (budget 25) =="
go run ./cmd/simmut -budget 25 ./internal/units ./internal/surface
go run ./cmd/simmut -budget 25 ./internal/serve
go run ./cmd/simmut -budget 25 ./internal/probe

echo "== go test -race =="
go test -race ./...

echo "== fuzz (3 s per target) =="
for spec in FuzzBandwidth:serve FuzzBatch:serve FuzzPlan:serve \
    FuzzRequestDecode:serve FuzzParseBytes:units \
    FuzzSurfaceSnapshot:surface FuzzManifest:store; do
    go test -run '^$' -fuzz "^${spec%%:*}\$" -fuzztime 3s "./internal/${spec#*:}"
done

echo "== hot-primitive benchmarks (one iteration) =="
go test -run '^$' -bench 'Prime|Measure|Transfer' -benchtime 1x ./internal/bench
go test -run '^$' -bench '^Benchmark(ServeSingle|ServeBatch|Handler)$' -benchtime 1x ./internal/serve

echo "== memtrace smoke =="
go run ./cmd/memtrace -machine 8400 -ws 16K -stride 4 -out /dev/null

echo "== analytic validation (reduced grid) =="
go run ./cmd/memchar -validate -maxws 512K -j 4 -store "" >/dev/null

echo "== warm-store smoke =="
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go run ./cmd/figures -fig 6 -store "$smoke/sweepstore" \
    >"$smoke/cold.stdout" 2>/dev/null
go run ./cmd/figures -fig 6 -store "$smoke/sweepstore" \
    >"$smoke/warm.stdout" 2>"$smoke/warm.stderr"
cmp "$smoke/cold.stdout" "$smoke/warm.stdout"
grep -q "store: .* 0 misses" "$smoke/warm.stderr"
# The same over a copy-curve figure: its curves are one-row surfaces.
go run ./cmd/figures -fig 11 -store "$smoke/sweepstore" \
    >"$smoke/cold11.stdout" 2>/dev/null
go run ./cmd/figures -fig 11 -store "$smoke/sweepstore" \
    >"$smoke/warm11.stdout" 2>"$smoke/warm11.stderr"
cmp "$smoke/cold11.stdout" "$smoke/warm11.stdout"
grep -q "store: .* 0 misses" "$smoke/warm11.stderr"
# Upgrade path: a -fast run leaves a partial surface; the full run
# over the same store completes it to the storeless bytes.
go run ./cmd/figures -fig 6 -fast -store "$smoke/upgradestore" \
    >/dev/null 2>&1
go run ./cmd/figures -fig 6 -store "$smoke/upgradestore" \
    >"$smoke/upgraded.stdout" 2>/dev/null
go run ./cmd/figures -fig 6 -store "" >"$smoke/storeless.stdout" 2>/dev/null
cmp "$smoke/upgraded.stdout" "$smoke/storeless.stdout"

echo "== memserve smoke =="
go build -o "$smoke/memserve" ./cmd/memserve
"$smoke/memserve" -addr 127.0.0.1:0 -store "$smoke/sweepstore" \
    >"$smoke/serve.log" 2>&1 &
serve_pid=$!
# The startup line carries the bound address (the port was :0).
base=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    base=$(sed -n 's,.* on \(http://[0-9.:]*\)$,\1,p' "$smoke/serve.log")
    [ -n "$base" ] && break
    sleep 0.25
done
[ -n "$base" ] || { echo "memserve: never came up" >&2; exit 1; }
curl -fsS "$base/healthz" >/dev/null
single=$(curl -fsS -X POST "$base/v1/bandwidth" \
    -d '{"machine":"t3e","pattern":"load","ws":"32k","stride":4}')
echo "$single" | grep -q '"confidence":"' || {
    echo "memserve: no confidence tag in $single" >&2; exit 1; }
batch=$(curl -fsS -X POST "$base/v1/bandwidth/batch" \
    -d '{"queries":[{"machine":"t3e","pattern":"load","ws":"32k","stride":4},{"machine":"8400","pattern":"transfer","mode":"fetch","ws":"8M","stride":1}]}')
echo "$batch" | grep -q '"confidence":"' || {
    echo "memserve: no confidence tag in batch $batch" >&2; exit 1; }
kill -INT "$serve_pid"
wait "$serve_pid" || { echo "memserve: unclean shutdown" >&2; exit 1; }
grep -q "shutdown complete" "$smoke/serve.log"

echo "== perfbench =="
(cd perfbench && go test ./...)
python3 perfbench/run.py --workload sweep --seed 1 --seconds 1 --trace 0

echo "check: all green"
