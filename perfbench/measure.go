package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// outcome is what one workload run measured and checked. Every
// workload fills the same fields, so every workload reports every
// end-to-end metric; README.md gives each workload's reading of them.
type outcome struct {
	// setup holds the duration of each set-up repetition.
	setup []time.Duration
	// ops is the number of closed-loop operations completed in the
	// timed phase, over opWall; the application ran for appDur of it.
	ops    int64
	opWall time.Duration
	appDur time.Duration
	// events passed every stage the workload turns on, over checkWall
	// (first timed op until the last stage returned).
	events    int64
	checkWall time.Duration
	// opLat are the sampled operation latencies; opTimes mark when
	// completed operations started, each standing for opWeight
	// operations. delays are the detection delays (ns).
	opLat    []sample
	opTimes  []int64
	opWeight int64
	delays   []int64
	// mem is the allocation delta over the timed phase, per memEvents
	// events.
	mem       memDelta
	memEvents int64
	peakLive  uint64
	// attempted counts operations and checks; failed those that failed,
	// each described in failures.
	attempted, failed int64
	failures          []string
	// layer holds the per-layer metrics of a traced run.
	layer map[string]metric
	// notes describe the run's inputs for the log.
	notes []string
}

// check counts one correctness check against attempted and records it
// as a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// fail records one failed operation or check that is already counted
// as attempted.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) opsPerSec() float64 { return perSec(o.ops, o.opWall) }

// windows is how many equal windows the application's part of the
// timed phase is split into. Throughput and operation latency are
// medians over the windows, so a burst of interference from outside
// the process that spoils one window does not move them.
const windows = 5

// sample is one timed operation: when it started, in ns since the timed
// phase began, and its latency in ns.
type sample struct{ at, v int64 }

// window returns the index of the window holding offset at, or -1 past
// the last full window.
func (o *outcome) window(at int64) int {
	w := int(at / (int64(o.appDur) / windows))
	if w >= windows || at < 0 {
		return -1
	}
	return w
}

// windowedRate is the median over the windows of the operations
// completed per second.
func (o *outcome) windowedRate() float64 {
	counts := make([]int64, windows)
	for _, at := range o.opTimes {
		if w := o.window(at); w >= 0 {
			counts[w] += o.opWeight
		}
	}
	return percentile(counts, 0.5) / (o.appDur.Seconds() / windows)
}

// windowedPercentile is the median over the windows of each window's
// exact q-quantile of the sampled operation latencies.
func (o *outcome) windowedPercentile(q float64) float64 {
	per := make([][]int64, windows)
	for _, s := range o.opLat {
		if w := o.window(s.at); w >= 0 {
			per[w] = append(per[w], s.v)
		}
	}
	var ps []int64
	for _, lat := range per {
		if len(lat) > 0 {
			ps = append(ps, int64(percentile(lat, q)))
		}
	}
	return percentile(ps, 0.5)
}

// endToEnd computes the end-to-end metrics.
func (o *outcome) endToEnd() map[string]metric {
	perEvent := func(v uint64) float64 {
		if o.memEvents == 0 {
			return 0
		}
		return float64(v) / float64(o.memEvents)
	}
	return map[string]metric{
		"setup_s":               {medianDuration(o.setup).Seconds(), "s"},
		"app_ops_per_s":         {o.windowedRate(), "1/s"},
		"checked_events_per_s":  {perSec(o.events, o.checkWall), "1/s"},
		"op_latency_p50_us":     {o.windowedPercentile(0.50) / 1e3, "us"},
		"detect_delay_p50_ms":   {percentile(o.delays, 0.50) / 1e6, "ms"},
		"alloc_bytes_per_event": {perEvent(o.mem.bytes), "B"},
		"allocs_per_event":      {perEvent(o.mem.allocs), "count"},
		"peak_live_heap_mb":     {float64(o.peakLive) / 1e6, "MB"},
	}
}

// tails computes the 99th percentiles that the log reports next to the
// end-to-end metrics. They are not end-to-end metrics: on a shared
// machine they move with CPU time stolen from the process by more than
// any bound the benchmark may set (README.md).
func (o *outcome) tails() map[string]metric {
	return map[string]metric{
		"op_latency_p99_us":   {o.windowedPercentile(0.99) / 1e3, "us"},
		"detect_delay_p99_ms": {percentile(o.delays, 0.99) / 1e6, "ms"},
	}
}

func perSec(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// percentile returns the exact q-quantile of the samples (nearest rank
// on the sorted samples), or 0 for none. It sorts samples in place.
func percentile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	i := int(q*float64(len(samples))+0.5) - 1
	i = max(0, min(i, len(samples)-1))
	return float64(samples[i])
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// memDelta is an allocation delta between two runtime.MemStats reads.
type memDelta struct{ bytes, allocs uint64 }

// memMark starts an allocation measurement; the returned function ends
// it.
func memMark() func() memDelta {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() memDelta {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return memDelta{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}
	}
}

// heapWatch polls the live-heap metric (the heap marked live by the
// latest GC cycle). It keeps the highest reading of each heapWindow of
// the timed phase and reports the median of those window peaks, which
// a single stray spike does not move.
type heapWatch struct {
	stop chan struct{}
	done chan uint64
}

const (
	// liveHeapPoll is how often the metric is read: short enough to see
	// every GC cycle at the allocation rates these workloads reach.
	liveHeapPoll = time.Millisecond
	heapWindow   = time.Second
)

func watchLiveHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peaks []int64
		var peak uint64
		windowEnd := time.Now().Add(heapWindow)
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		read()
		t := time.NewTicker(liveHeapPoll)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				peaks = append(peaks, int64(peak))
				h.done <- uint64(percentile(peaks, 0.5))
				return
			case now := <-t.C:
				read()
				if now.After(windowEnd) {
					peaks = append(peaks, int64(peak))
					peak = 0
					windowEnd = now.Add(heapWindow)
				}
			}
		}
	}()
	return h
}

// Stop ends the watch and returns the median window peak in bytes.
func (h *heapWatch) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// runtimeMark starts a GC-activity measurement for the runtime layer;
// the returned function ends it and adds the layer's metrics to m.
func runtimeMark() func(m map[string]metric) {
	names := []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}
	read := func() []metrics.Sample {
		s := make([]metrics.Sample, len(names))
		for i, n := range names {
			s[i].Name = n
		}
		metrics.Read(s)
		return s
	}
	before := read()
	return func(m map[string]metric) {
		after := read()
		cycles := after[0].Value.Uint64() - before[0].Value.Uint64()
		gcCPU := after[1].Value.Float64() - before[1].Value.Float64()
		total := after[2].Value.Float64() - before[2].Value.Float64()
		share := 0.0
		if total > 0 {
			share = gcCPU / total
		}
		m["runtime.gc_cycles"] = metric{float64(cycles), "count"}
		m["runtime.gc_cpu_share"] = metric{share, "ratio"}
	}
}

// timedPhase brackets a workload's timed phase: it settles the heap,
// then measures allocations, the live-heap peak and (when traced) GC
// activity until end is called.
type timedPhase struct {
	start   time.Time
	mem     func() memDelta
	heap    *heapWatch
	runtime func(map[string]metric)
}

func beginTimed() *timedPhase {
	runtime.GC()
	p := &timedPhase{heap: watchLiveHeap(), runtime: runtimeMark()}
	p.mem = memMark()
	p.start = time.Now()
	return p
}

// end stops the allocation and heap measurements and stores them in o;
// layer, when non-nil, receives the runtime layer's metrics.
func (p *timedPhase) end(o *outcome, layer map[string]metric) {
	o.mem = p.mem()
	o.peakLive = p.heap.Stop()
	if layer != nil {
		p.runtime(layer)
	}
}

// sampleEvery is the fixed 1-in-N sampling rate of application calls.
const sampleEvery = 64

// latencySampler times every sampleEvery-th call of one application
// goroutine.
type latencySampler struct {
	n    int
	base time.Time // start of the timed phase
	lat  []sample
}

// due reports whether the next operation is sampled.
func (s *latencySampler) due() bool {
	s.n++
	return s.n%sampleEvery == 0
}

// add records an operation that started at start and took d.
func (s *latencySampler) add(start time.Time, d time.Duration) {
	s.lat = append(s.lat, sample{int64(start.Sub(s.base)), int64(d)})
}

// collectSamples stores the samplers' latencies in o, each sample also
// standing for sampleEvery calls in the throughput windows.
func (o *outcome) collectSamples(ss ...*latencySampler) {
	for _, s := range ss {
		o.opLat = append(o.opLat, s.lat...)
		for _, l := range s.lat {
			o.opTimes = append(o.opTimes, l.at)
		}
	}
	o.opWeight = sampleEvery
}
