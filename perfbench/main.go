// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator, the surface store and the
// characterization service through their public functions, checks
// every output against a recorded reference, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload sweep -seed 1 -seconds 50 -trace 0
//	perfbench -record testdata/reference.txt
//
// -trace 0 reports the end-to-end metrics; -trace 1 makes a separate
// traced run that reports the per-layer metrics and writes its spans
// under -out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metricSpec is one reported metric and its unit. The lists mirror
// BENCHMARK.json.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"paper_dev_pct", "%"},
	{"requests_per_s", "req/s"},
	{"p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"bench.load_cell_ms.L1", "ms"},
	{"bench.load_cell_ms.L2", "ms"},
	{"bench.load_cell_ms.L3", "ms"},
	{"bench.load_cell_ms.DRAM", "ms"},
	{"bench.transfer_cell_ms.L1", "ms"},
	{"bench.transfer_cell_ms.L2", "ms"},
	{"bench.transfer_cell_ms.L3", "ms"},
	{"bench.transfer_cell_ms.DRAM", "ms"},
	{"bench.load_ns_per_access", "ns"},
	{"bench.slowest_cell_ms", "ms"},
	{"machine.loads", "count"},
	{"machine.l1_misses", "count"},
	{"machine.dram_accesses", "count"},
	{"machine.bus_transactions", "count"},
	{"machine.torus_bytes", "bytes"},
	{"sweep.points", "count"},
	{"sweep.busy_frac", "ratio"},
	{"analytic.simulated_frac", "ratio"},
	{"analytic.model_us", "us"},
	{"store.put_ms", "ms"},
	{"store.get_us", "us"},
	{"store.lookup_us.exact", "us"},
	{"store.lookup_us.interpolated", "us"},
	{"store.lookup_us.analytic", "us"},
	{"store.hit_rate", "ratio"},
	{"serve.handler_us.bandwidth", "us"},
	{"serve.handler_us.batch", "us"},
	{"serve.handler_us.plan", "us"},
	{"serve.transport_us", "us"},
	{"serve.p99_ms", "ms"},
	{"serve.batch_p99_ms", "ms"},
	{"serve.confidence.exact", "count"},
	{"serve.confidence.interpolated", "count"},
	{"serve.confidence.analytic", "count"},
	{"serve.analytic_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string    // directory for scratch stores and span files
	log      io.Writer // human-readable progress and sample counts
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	spans             []span // traced runs only
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// count records attempted checks and how many of them failed.
func (o *outcome) count(attempted, failed int64) {
	o.attempted += attempted
	o.failed += failed
}

var workloads = map[string]func(config) (*outcome, error){
	"sweep":     runSweep,
	"serve_mix": runServe,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep or serve_mix")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 50, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch stores and span files")
	record := fs.String("record", "", "sweep the full paper grid and write the reference to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(poolWidth)
	if *record != "" {
		if err := writeReferenceFile(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (sweep, serve_mix), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *traced == 1, out: *out, log: stderr,
		seconds: time.Duration(*seconds * float64(time.Second)),
	}
	o, err := w(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.out, cfg.workload, cfg.seed)
		if err := writeSpans(path, o.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprint(stderr, summary(o.spans))
		fmt.Fprintln(stderr, "spans written to", path)
	}
	res, err := assemble(cfg.trace, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "error_rate %.6f (%d failed of %d attempted)\n",
		float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// assemble builds the result line: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one. A per-layer
// metric of a layer the workload never calls reads 0; an end-to-end
// metric must be measured.
func assemble(traced bool, o *outcome) (result, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok && !traced {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// writeReferenceFile records the reference grid at path.
func writeReferenceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := recordReference(f); err != nil {
		return err
	}
	return f.Close()
}
