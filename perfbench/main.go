// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds authdns, recursor, ecsscan and ecslab from the
// checkout and then runs this program, which starts the binaries, drives
// one named workload from a single load-generator process, checks every
// output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve-hot --seed 7 --seconds 24 --trace 0
//
// With --trace 1 it instead rebuilds the workload's stack in-process
// from the packages' public constructors, wraps every call into a layer
// with a span, and prints the per-layer metrics. See README.md for the
// workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env locates the built binaries and the scratch directory a run may
// write to.
type env struct {
	root, bin, work string
	seed            int64
	seconds         time.Duration
}

func (e env) binary(name string) string { return e.bin + "/" + name }

// run is what every workload returns: its result plus the problems that
// make it incorrect (failed output checks or unbalanced accounting).
type run struct {
	res      result
	problems []string
	// info is printed on a line of its own before the result: leak
	// watch figures, sample counts, input properties.
	info map[string]any
}

func newRun() *run {
	return &run{res: result{Metrics: map[string]metric{}}, info: map[string]any{}}
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain  func(env) (*run, error)
	traced func(env) (*run, error)
}{
	"serve-hot":  {plain: serveHot, traced: traceServeHot},
	"serve-cold": {plain: serveCold, traced: traceServeCold},
	"scan":       {plain: scan, traced: traceScan},
	"replay":     {plain: replay, traced: traceReplay},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: serve-hot, serve-cold, scan or replay")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 24, "seconds one run measures for")
		trace    = flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository checkout the binaries were built from")
		bin      = flag.String("bin", "", "directory holding the built binaries")
		work     = flag.String("work", "", "scratch directory inside the checkout")
		compare  = flag.Bool("compare", false, "compare two saved outputs (file arguments) after checking their machine stamps")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	w, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -work DIR --workload serve-hot|serve-cold|scan|replay --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// An interrupted benchmark still ends every process it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(1)
	}()
	e := env{root: *root, bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	fn := w.plain
	if *trace == 1 {
		fn = w.traced
	}
	r, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *trace == 0 {
		atReferenceSpeed(r)
	}
	for _, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("a metric could not be measured")
			break
		}
	}
	r.res.Correct = len(r.problems) == 0 && r.res.Failed == 0 && r.res.Attempted > 0
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, p)
	}
	r.info["stamp"] = machineStamp(e, *workload, *trace)
	printJSON(os.Stdout, r.info)
	printJSON(os.Stdout, r.res)
	if !r.res.Correct {
		os.Exit(1)
	}
}

func printJSON(f *os.File, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(b))
}

// workers is the load generator's parallelism: one socket and one
// goroutine per CPU, never more.
func workers() int {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	return n
}

// sortedKeys returns m's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
