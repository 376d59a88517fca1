# Convenience targets; `make check` is the pre-commit gate.

.PHONY: build test check lint lint-fix mutate fmt figures bench serve

build:
	go build ./...

test:
	go test ./...

# check runs the full gate (scripts/check.sh lists its steps): build,
# gofmt (hard failure), go vet, simlint, the simmut smoke, the test
# suite under the race detector, and the end-to-end smokes.
check:
	./scripts/check.sh

# lint runs only the domain-specific analyzers (through the
# incremental cache); any finding fails.
lint:
	go run ./cmd/simlint ./...

# lint-fix applies simlint's suggested fixes in place (insert `_ =`,
# rewrite worker appends as writes-by-index, zero forgotten fields in
# ColdReset); output is always gofmt-clean.
lint-fix:
	go run ./cmd/simlint -fix ./...

# mutate runs the full domain mutation sweep (cmd/simmut) over the
# counter, units, codec, reset, and cursor fault classes; results are
# served from .simmutcache when the tree is unchanged. Exit 1 means a
# mutant survived — write the missing test or annotate the site.
mutate:
	go run ./cmd/simmut -v

fmt:
	gofmt -w .

# figures regenerates the paper's tables/figures into out/.
figures:
	go run ./cmd/figures -all -out out

# bench times the full sweep at -j 1 vs -j <cpus>, checks the outputs
# are byte-identical, and records the result in BENCH_sweeps.json.
bench:
	./scripts/bench.sh

# serve starts the characterization service on loopback over the
# default surface store (run a sweep with -store .sweepstore first to
# warm it; cold queries fall back to the analytic model).
serve:
	go run ./cmd/memserve -addr 127.0.0.1:8090 -store .sweepstore
