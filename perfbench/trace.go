package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// span is one timed call into a layer. Spans of one sampled operation
// or one checkpoint share an ID; Parent is the index of the enclosing
// span, or -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxPid bounds the process ids the tracer keeps per-process state for;
// the workloads run at most a handful of processes.
const maxPid = 16

// tracer keeps spans in memory until the run ends. Every span is timed
// by this package around a call it makes, or passes through, into a
// layer; nothing inside the program is instrumented.
type tracer struct {
	base   time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// from excludes spans that started before it (the set-up) from the
	// per-layer metrics; the span file keeps them.
	from int64

	// ops holds, per process id, the open sampled-operation span that
	// the process's history appends nest under (-1: none). Each slot is
	// written and read only by the goroutine running that process.
	ops [maxPid]struct {
		idx int
		id  int64
	}
	// appends counts every history append, sampled or not.
	appends atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	for i := range t.ops {
		t.ops[i].idx = -1
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add stores a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// open stores a span whose end is not known yet; close ends it.
func (t *tracer) open(name string, id int64, parent int) int {
	return t.add(span{ID: id, Parent: parent, Name: name, Start: t.now(), End: -1})
}

func (t *tracer) close(idx int) {
	end := t.now()
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// timed runs fn inside a root span of the given name and returns fn's
// duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := t.now()
	fn()
	end := t.now()
	t.add(span{ID: t.nextID.Add(1), Parent: -1, Name: name, Start: start, End: end})
	return time.Duration(end - start)
}

// beginOp opens the span of one sampled application call made by
// process pid; the call's history appends become its children.
func (t *tracer) beginOp(pid int64, name string) {
	id := t.nextID.Add(1)
	t.ops[pid].idx, t.ops[pid].id = t.open(name, id, -1), id
}

func (t *tracer) endOp(pid int64) {
	t.close(t.ops[pid].idx)
	t.ops[pid].idx = -1
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// startMeasuring makes the per-layer metrics cover only spans that
// start from now on.
func (t *tracer) startMeasuring() {
	t.mu.Lock()
	t.from = t.now()
	t.mu.Unlock()
}

// counts reports whether s is a finished span named name that the
// per-layer metrics cover.
func (t *tracer) counts(s span, name string) bool {
	return s.Name == name && s.End >= 0 && s.Start >= t.from
}

// durations returns the durations of the measured spans named name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if t.counts(s, name) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns, for each measured span named name, its duration
// minus the time its children cover.
func (t *tracer) selfTimes(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []int64
	for i, s := range t.spans {
		if t.counts(s, name) {
			out = append(out, s.End-s.Start-child[i])
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRecorder times the history appends of sampled operations; it
// sits between a monitor and the history (monitor.WithRecorder).
type tracedRecorder struct {
	next monitor.Recorder
	t    *tracer
}

func (r *tracedRecorder) Append(e event.Event) event.Event {
	r.t.appends.Add(1)
	op := r.t.ops[e.Pid]
	if op.idx < 0 {
		return r.next.Append(e)
	}
	start := r.t.now()
	out := r.next.Append(e)
	r.t.add(span{ID: op.id, Parent: op.idx, Name: "history.append", Start: start, End: r.t.now()})
	return out
}

// tracedClock is the detector's clock seam: a checkpoint span runs from
// a timer firing to the detector's next timer request.
type tracedClock struct {
	t *tracer

	mu   sync.Mutex
	open int // index of the open checkpoint span, -1 when waiting
	id   int64
}

func newTracedClock(t *tracer) *tracedClock { return &tracedClock{t: t, open: -1} }

func (c *tracedClock) Now() time.Time        { return time.Now() }
func (c *tracedClock) Sleep(d time.Duration) { time.Sleep(d) }

func (c *tracedClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	if c.open >= 0 {
		c.t.close(c.open)
		c.open = -1
	}
	c.mu.Unlock()
	out := make(chan time.Time, 1)
	go func() {
		fired := <-time.After(d)
		c.mu.Lock()
		c.id = c.t.nextID.Add(1)
		c.open = c.t.open("detect.checkpoint", c.id, -1)
		c.mu.Unlock()
		out <- fired
	}()
	return out
}

// current returns the open checkpoint span and its id.
func (c *tracedClock) current() (int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.open, c.id
}

// tracedExporter times the detector's hand-off of drained segments to
// the exporter queue, nesting each under its checkpoint.
type tracedExporter struct {
	next *export.Exporter
	t    *tracer
	clk  *tracedClock
}

func (e *tracedExporter) Consume(mon string, seg event.Seq) {
	parent, id := e.clk.current()
	start := e.t.now()
	e.next.Consume(mon, seg)
	e.t.add(span{ID: id, Parent: parent, Name: "export.handoff", Start: start, End: e.t.now()})
}

func (e *tracedExporter) ConsumeMarker(m history.RecoveryMarker) { e.next.ConsumeMarker(m) }
func (e *tracedExporter) ConsumeHealth(h obs.HealthRecord)       { e.next.ConsumeHealth(h) }
func (e *tracedExporter) ConsumeAlert(a obsrules.Alert)          { e.next.ConsumeAlert(a) }
func (e *tracedExporter) Flush() error                           { return e.next.Flush() }

// fullSink is an export sink with every record-kind extension, as the
// WAL and network sinks are.
type fullSink interface {
	export.Sink
	export.MarkerSink
	export.HealthSink
	export.AlertSink
}

// tracedSink times the exporter writer's segment writes and flushes.
type tracedSink struct {
	next fullSink
	t    *tracer
}

func (s *tracedSink) WriteSegment(seg export.Segment) error {
	var err error
	s.t.timed("export.sink_write", func() { err = s.next.WriteSegment(seg) })
	return err
}

func (s *tracedSink) Flush() error {
	var err error
	s.t.timed("export.sink_flush", func() { err = s.next.Flush() })
	return err
}

func (s *tracedSink) WriteMarker(m history.RecoveryMarker) error { return s.next.WriteMarker(m) }
func (s *tracedSink) WriteHealth(h obs.HealthRecord) error       { return s.next.WriteHealth(h) }
func (s *tracedSink) WriteAlert(a obsrules.Alert) error          { return s.next.WriteAlert(a) }
func (s *tracedSink) Close() error                               { return s.next.Close() }
