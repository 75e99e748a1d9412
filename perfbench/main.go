// Command perfbench is the repository benchmark. It drives the Flick-Go
// stack from outside, through each layer's public functions, on four
// workloads:
//
//	compile    every committed flick configuration through flick.Compile
//	marshal    the paper's Fig 3 grid: generated XDR and CDR stubs, no transport
//	rpc-small  Bench.Sum, 64 B payload, over TCP loopback
//	rpc-bulk   Bench.ListDir / Bench.SendDirs, 64 KB payloads, over TCP loopback
//
// Usage (from the repository root, normally through perfbench/run.py):
//
//	perfbench --workload rpc-small --seed 7 --seconds 10 --trace 0
//
// Every run checks the program's outputs, prints informational lines,
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end metrics,
// measured with tracing off. With --trace 1 the run measures both
// untraced and traced (alternating rounds on compile and marshal; an
// untraced phase, then a traced one, on the RPC workloads) and the
// metrics are the per-layer metrics derived from the spans and the
// runtime's counters, plus the tracing overhead: traced minus untraced
// for each end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its workload's state; the
// reported setup_s is their median, so one slow repetition (a cold
// page cache, a noisy neighbour) does not move it.
const setupReps = 5

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted int64
	failed    int64
	e2e       map[string]metric // end-to-end metrics (untraced)
	layer     map[string]metric // per-layer metrics (traced runs only)
	info      []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// check counts one checked operation and whether it was correct.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // repository checkout (corpus and goldens)
	out     string // where span dumps are written
}

// workload runs one named workload.
type workload func(o options, r *report) error

var workloads = map[string]workload{
	"compile":   runCompile,
	"marshal":   runMarshal,
	"rpc-small": runRPCSmall,
	"rpc-bulk":  runRPCBulk,
}

// endToEnd lists the gated metrics; every workload reports each of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"cpu_us_per_op", "us"},
}

func main() {
	var o options
	name := flag.String("workload", "", "workload: compile, marshal, rpc-small, rpc-bulk")
	flag.Int64Var(&o.seed, "seed", 1, "input-generation seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span dumps")
	flag.Parse()
	o.trace = *trace == 1

	run, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, o.seconds)
		os.Exit(2)
	}
	r := newReport()
	if err := run(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range endToEnd {
		if _, ok := r.e2e[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", *name, m.name)
			os.Exit(1)
		}
	}
	if r.attempted > 0 {
		r.infof("fail_frac %.6f ratio (%d failed of %d attempted)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	if err := emit(r, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the informational lines and the result line.
func emit(r *report, traced bool) error {
	for _, l := range r.info {
		fmt.Println(l)
	}
	metrics := r.e2e
	if traced {
		metrics = map[string]metric{}
		// Every per-layer metric is printed on every workload; a layer
		// the workload does not exercise did no work there, so it reads 0.
		for _, m := range perLayer {
			metrics[m.name] = metric{0, m.unit}
		}
		for k, v := range r.layer {
			if _, ok := metrics[k]; !ok {
				return fmt.Errorf("per-layer metric %q is not declared", k)
			}
			metrics[k] = v
		}
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %s %.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timeSetup runs build setupReps times, tearing down all but the last
// result, and records the median build time as setup_s. With a host
// reference, each build is followed by a run of it and setup_s is taken
// relative to it (see atRefSpeed), like the workload's other figures.
func timeSetup[T any](r *report, ref *hostRef, build func() (T, error), teardown func(T)) (T, error) {
	var last T
	times := make([]float64, 0, setupReps)
	var refs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
		if ref != nil {
			refs = append(refs, ref.run().us/1e6)
		}
	}
	setup := median(times)
	if ref != nil {
		setup = atRefSpeed(times, refs) / 1e6
	}
	r.e2e["setup_s"] = metric{setup, "s"}
	r.infof("setup_s samples as measured %v", fmtFloats(times, "%.4f"))
	return last, nil
}

// singleP runs the process on one P until the returned function is
// called. The compile and marshal workloads time single-threaded code;
// on one P the garbage collector's background work shares the timed
// thread, so a pass or window takes the same time whether or not the
// second core happens to be free. With two Ps the passes of one compile
// run spread from 39 to 89 ms; with one, their 90th percentile is within
// 6% of their median.
func singleP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// spanFile names the span dump for a workload.
func spanFile(o options, workload string) string {
	return filepath.Join(o.out, "spans-"+workload+".tsv")
}
