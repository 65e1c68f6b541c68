// Command perfbench is the repository benchmark. It drives the
// production pipeline — monitor primitives → history → detector
// checkpoints → exporter → NetSink → collector, and the trace-store
// reader — through closed-loop workloads, checks the pipeline's outputs,
// and prints one JSON result line.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload inmem-16mon --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half and the
// result carries the per-layer metrics, timed from this package's own
// wrappers around the calls it makes into each layer, plus the tracing
// overhead. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is what one workload run receives: the seed it expands into
// its inputs, how long to measure, and where it may write.
type runConfig struct {
	seed uint64
	dur  time.Duration
	// dir is a fresh directory for this run's stores and collector
	// roots, removed when the run ends.
	dir string
	// setups is how many times the workload sets up; setup_s is their
	// median and only the last set-up proceeds to the timed phase.
	setups int
	// small shrinks the set-up warm-ups and canary gaps for the
	// self-test; the store is small already.
	small bool
	// inject deliberately breaks the run so the self-test can prove the
	// checks notice.
	inject injection
}

// size returns a fixed input size n, shrunk for the self-test.
func (c runConfig) size(n int) int {
	if c.small {
		return max(n/50, 1)
	}
	return n
}

// injection names a deliberate fault in the benchmark's own bookkeeping.
type injection int

const (
	injectNone injection = iota
	// injectDropCanary runs one canary operation without its fault while
	// still expecting a report.
	injectDropCanary
	// injectDropEvent loses one recorded event between a monitor and
	// the history.
	injectDropEvent
)

// workload is one closed-loop benchmark workload. run sets up, measures
// for cfg.dur and checks the outputs; tr is nil for an untraced run.
type workload struct {
	name string
	run  func(cfg runConfig, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"inmem-16mon", runInmem},
	{"fleet-coord", runFleet},
	{"store-query", runStore},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; expands into every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"),
		"directory for stores, collector roots and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir, false, injectNone, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setupRepeats is how many times an untraced run sets up; the median
// steadies setup_s without lengthening the timed phase.
const setupRepeats = 5

// runWorkload runs w once (untraced) or twice (an untraced and a traced
// half of dur each) and assembles the result.
func runWorkload(w workload, seed uint64, dur time.Duration, traced bool, workdir string,
	small bool, inj injection, log io.Writer) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: seed, dur: dur, dir: dir, setups: setupRepeats, small: small, inject: inj}
	if small {
		cfg.setups = 2
	}

	if !traced {
		out, err := w.run(cfg, nil)
		if err != nil {
			return nil, err
		}
		out.logSummary(log, w.name+" untraced")
		return &result{
			Correct:   out.failed == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   out.endToEnd(),
		}, nil
	}

	// Traced: the same workload twice with one set-up each, untraced
	// then traced, each for half the run; the per-layer numbers come
	// from the traced half and the gap between the halves is the
	// tracing overhead.
	cfg.dur = dur / 2
	cfg.setups = 1
	plain, err := w.run(cfg, nil)
	if err != nil {
		return nil, err
	}
	plain.logSummary(log, w.name+" untraced half")
	tr := newTracer()
	cfg.dir = filepath.Join(dir, "traced")
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	out, err := w.run(cfg, tr)
	if err != nil {
		return nil, err
	}
	out.logSummary(log, w.name+" traced half")
	metrics := out.layer
	overhead := 0.0
	if p := plain.opsPerSec(); p > 0 {
		overhead = 1 - out.opsPerSec()/p
	}
	metrics["trace.overhead_share"] = metric{overhead, "ratio"}
	spanFile := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := tr.writeFile(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %d spans written to %s; tracing overhead %.1f%% of app_ops_per_s\n",
		tr.count(), spanFile, 100*overhead)
	failed := plain.failed + out.failed
	return &result{
		Correct:   failed == 0,
		Attempted: plain.attempted + out.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// logSummary prints the run's end-to-end figures, sample counts and any
// failed checks to log.
func (o *outcome) logSummary(log io.Writer, label string) {
	m := o.endToEnd()
	for k, v := range o.tails() {
		m[k] = v
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "== %s: %d ops, %d events, %d latency samples, %d detection samples, attempted %d, failed %d\n",
		label, o.ops, o.events, len(o.opLat), len(o.delays), o.attempted, o.failed)
	for _, n := range names {
		fmt.Fprintf(log, "   %-24s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintf(log, "   note: %s\n", n)
	}
	for _, f := range o.failures {
		fmt.Fprintf(log, "   FAILED: %s\n", f)
	}
}
