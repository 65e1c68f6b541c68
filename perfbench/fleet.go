package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/export"
	netexport "robustmon/internal/export/net"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
)

// fleet-coord: 4 bounded buffers (communication coordinators), one
// producer and one consumer goroutine that move items through them in
// seeded bursts longer than a buffer holds, so condition-queue Waits are
// a steady share of the trace, a hold-world detector under
// the adaptive scheduler, and every drained event shipped through the
// exporter (Block policy) and a NetSink over one loopback connection to
// an in-process collector that writes and indexes it.
const (
	fleetBuffers     = 4
	fleetCapacity    = 2
	fleetMaxBurst    = 3       // items sent to one buffer before moving to the next: 1..fleetMaxBurst
	fleetWarmup      = 100_000 // items per set-up
	fleetMinInterval = time.Millisecond
	fleetMaxInterval = 20 * time.Millisecond
	fleetBatch       = 256
	fleetCanaryGap   = 1000 // mean producer calls between canaries
	fleetOrigin      = "perfbench"
	// fleetEnd is the value the producer sends last; it ends the
	// consumer's loop.
	fleetEnd = -1
)

// fleetPipeline is one set-up of the fleet-coord workload.
type fleetPipeline struct {
	db     *history.DB
	bufs   []*boundedbuffer.Buffer
	values []int // seeded item values, cycled
	// slots maps item i to its buffer, slots[i%len(slots)]: seeded
	// bursts over the buffers in turn. Producer and consumer share it.
	slots  []uint8
	can    *canary
	vd     *verdicts
	det    *detect.Detector
	exp    *export.Exporter
	ns     *netexport.NetSink
	col    *netexport.Collector
	lis    net.Listener
	served chan error
	root   string
	tr     *tracer

	stopDet func()
	// sent and received count items (the end marker excluded); sum and
	// recvSum are running checksums of their values and order.
	sent, received   int64
	sentSum, recvSum uint64
	closed           bool
}

func newFleetPipeline(cfg runConfig, dir string, tr *tracer) (*fleetPipeline, error) {
	w := &fleetPipeline{db: history.New(), root: filepath.Join(dir, "collector"), tr: tr}
	col, err := netexport.NewCollector(netexport.CollectorConfig{Dir: w.root})
	if err != nil {
		return nil, err
	}
	w.col = col
	if w.lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	w.served = make(chan error, 1)
	go func() { w.served <- col.Serve(w.lis) }()
	if w.ns, err = netexport.NewNetSink(netexport.NetSinkConfig{
		Addr: w.lis.Addr().String(), Origin: fleetOrigin, Policy: export.Block,
	}); err != nil {
		return nil, err
	}
	var sink fullSink = w.ns
	if tr != nil {
		sink = &tracedSink{next: w.ns, t: tr}
	}
	w.exp = export.New(sink, export.Config{Policy: export.Block})

	var rec monitor.Recorder = w.db
	if tr != nil {
		rec = &tracedRecorder{next: w.db, t: tr}
	}
	mons := make([]*monitor.Monitor, 0, fleetBuffers+1)
	for i := 0; i < fleetBuffers; i++ {
		b, err := boundedbuffer.New(fleetCapacity,
			boundedbuffer.WithName(fmt.Sprintf("buf%d", i)),
			boundedbuffer.WithMonitorOptions(monitor.WithRecorder(rec)))
		if err != nil {
			return nil, err
		}
		w.bufs = append(w.bufs, b)
		mons = append(mons, b.Monitor())
	}
	r := newRand(cfg.seed, streamOps)
	w.values = make([]int, 4096)
	for i := range w.values {
		w.values[i] = r.IntN(1 << 30)
	}
	for k := 0; len(w.slots) < 4096; k = (k + 1) % fleetBuffers {
		for n := 1 + r.IntN(fleetMaxBurst); n > 0; n-- {
			w.slots = append(w.slots, uint8(k))
		}
	}
	if w.can, err = newCanary(cfg.seed, cfg.size(fleetCanaryGap), monitor.WithRecorder(rec)); err != nil {
		return nil, err
	}
	w.can.drop = cfg.inject == injectDropCanary
	w.vd = &verdicts{can: w.can}

	dcfg := detect.Config{
		Tmax:        time.Hour,
		Tio:         time.Hour,
		BatchSize:   fleetBatch,
		MinInterval: fleetMinInterval,
		MaxInterval: fleetMaxInterval,
		OnViolation: w.vd.onViolation,
		Clock:       clock.Real{},
		Exporter:    w.exp,
	}
	if tr != nil {
		clk := newTracedClock(tr)
		dcfg.Clock = clk
		dcfg.Exporter = &tracedExporter{next: w.exp, t: tr, clk: clk}
	}
	w.det = detect.NewDefault(w.db, dcfg, append(mons, w.can.mon)...)
	w.can.det = w.det
	w.stopDet = detectorRun(w.det)

	if err := w.transfer(int64(cfg.size(fleetWarmup)), nil, nil, false); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// transfer runs the producer and the consumer until the producer sent
// limit items (limit > 0) or stop is set, and returns the first error.
// The producer then sends the end marker, and the consumer stops once
// it receives it.
func (w *fleetPipeline) transfer(limit int64, stop *atomic.Bool, samplers []*latencySampler, withCanary bool) error {
	rt := proc.NewRuntime()
	errs := make([]error, 2)
	sampler := func(i int) *latencySampler {
		if samplers == nil {
			return nil
		}
		return samplers[i]
	}
	rt.Spawn("producer", func(p *proc.P) {
		var can *canary
		if withCanary {
			can = w.can
		}
		errs[0] = w.produce(p, limit, stop, sampler(0), can)
	})
	rt.Spawn("consumer", func(p *proc.P) {
		errs[1] = w.consume(p, sampler(1))
	})
	rt.Join()
	return errors.Join(errs...)
}

func (w *fleetPipeline) produce(p *proc.P, limit int64, stop *atomic.Bool, s *latencySampler, can *canary) error {
	for n := int64(0); ; n++ {
		if (limit > 0 && n == limit) || (stop != nil && stop.Load()) {
			// The end marker takes the next item's slot, so the consumer
			// meets it right after the last real item.
			return w.buf(w.sent).Send(p, fleetEnd)
		}
		if can != nil {
			if _, err := can.step(p); err != nil {
				return err
			}
		}
		v := w.values[w.sent%int64(len(w.values))]
		b := w.buf(w.sent)
		if err := w.call(p, s, func() error { return b.Send(p, v) }); err != nil {
			return err
		}
		w.sent++
		w.sentSum = w.sentSum*31 + uint64(v)
	}
}

func (w *fleetPipeline) consume(p *proc.P, s *latencySampler) error {
	for {
		b := w.buf(w.received)
		var v int
		err := w.call(p, s, func() error {
			var err error
			v, err = b.Receive(p)
			return err
		})
		if err != nil {
			return err
		}
		if v == fleetEnd {
			return nil
		}
		w.received++
		w.recvSum = w.recvSum*31 + uint64(v)
	}
}

// buf returns the buffer that carries item i.
func (w *fleetPipeline) buf(i int64) *boundedbuffer.Buffer {
	return w.bufs[w.slots[i%int64(len(w.slots))]]
}

// call makes one application call, timing it when it is sampled.
func (w *fleetPipeline) call(p *proc.P, s *latencySampler, fn func() error) error {
	if s == nil || !s.due() {
		return fn()
	}
	if w.tr != nil {
		w.tr.beginOp(p.ID(), "monitor.call")
		defer w.tr.endOp(p.ID())
	}
	t0 := time.Now()
	err := fn()
	s.add(t0, time.Since(t0))
	return err
}

// close stops the detector and shuts the export path and the collector
// down; it returns the first error.
func (w *fleetPipeline) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.stopDet != nil {
		w.stopDet()
	}
	err := w.exp.Close() // also closes the NetSink
	if cerr := w.col.Close(); err == nil {
		err = cerr
	}
	w.lis.Close()
	<-w.served
	return err
}

func runFleet(cfg runConfig, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var w *fleetPipeline
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(filepath.Dir(w.root))
		}
		runtime.GC()
		start := time.Now()
		dir := filepath.Join(cfg.dir, fmt.Sprintf("fleet-%d", i))
		var err error
		if w, err = newFleetPipeline(cfg, dir, tr); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}
	defer w.close()

	samplers := []*latencySampler{{}, {}}
	var layer map[string]metric
	if tr != nil {
		layer = map[string]metric{}
	}
	stBefore := w.det.Stats()
	totalBefore := w.db.Total()
	opsBefore := w.sent + w.received
	appendsBefore := int64(0)
	if tr != nil {
		appendsBefore = tr.appends.Load()
	}

	var stop atomic.Bool
	tp := beginTimed()
	if tr != nil {
		tr.startMeasuring()
	}
	for _, s := range samplers {
		s.base = tp.start
	}
	o.appDur = cfg.dur
	go func() {
		time.Sleep(cfg.dur)
		stop.Store(true)
	}()
	callErr := w.transfer(0, &stop, samplers, true)
	o.opWall = time.Since(tp.start)
	// Run's final checkpoint flushes the exporter, whose writer flushes
	// the NetSink, which returns once the collector acknowledged every
	// record as durable.
	w.stopDet()
	o.checkWall = time.Since(tp.start)
	tp.end(o, layer)

	st := w.det.Stats()
	o.ops = w.sent + w.received - opsBefore
	recorded := w.db.Total() - totalBefore
	o.events = recorded - int64(st.ResetDropped-stBefore.ResetDropped)
	o.memEvents = recorded
	o.collectSamples(samplers...)
	es := w.exp.Stats()
	ns := w.ns.Stats()
	closeErr := w.close()

	o.attempted += o.ops
	if callErr != nil {
		o.fail("application call failed: %v", callErr)
	}
	o.check(closeErr == nil, "closing the export path: %v", closeErr)
	o.check(w.sent == w.received && w.sentSum == w.recvSum,
		"consumer received %d items (checksum %x), producer sent %d (checksum %x)", w.received, w.recvSum, w.sent, w.sentSum)
	o.check(int64(st.Events+st.ResetDropped) == w.db.Total(),
		"detector replayed %d events (+%d discarded by resets), history holds %d", st.Events, st.ResetDropped, w.db.Total())
	o.check(es.DroppedEvents == 0 && es.Events == int64(st.Events),
		"exporter accepted %d events and dropped %d, detector replayed %d", es.Events, es.DroppedEvents, st.Events)
	o.check(ns.Accepted == ns.Acked && ns.Dropped == 0 && ns.Resent == 0,
		"NetSink accepted %d, acked %d, dropped %d, resent %d", ns.Accepted, ns.Acked, ns.Dropped, ns.Resent)
	// The collector's store is read back file by file, so the check
	// holds one file's events at a time however long the run was.
	var stored, waits, blocked int64
	var err error
	readNs := measureNs(tr, "store.readdir", func() {
		stored, waits, blocked, err = countStored(filepath.Join(w.root, fleetOrigin))
	})
	if err != nil {
		o.fail("reading the collector's store: %v", err)
	} else {
		o.check(stored == int64(st.Events), "collector store holds %d events, detector replayed %d", stored, st.Events)
	}
	o.notes = append(o.notes, fmt.Sprintf("%d Wait events and %d blocked Enters in %d stored events", waits, blocked, stored))
	w.vd.check(o)
	o.delays = w.can.reportDelays()

	if tr != nil {
		detectLayer(layer, tr, stBefore, st, o.checkWall)
		layer["monitor.op_self_ns_p50"] = metric{percentile(tr.selfTimes("monitor.call"), 0.5), "ns"}
		historyLayer(layer, tr, appendsBefore)
		handoffs := tr.durations("export.handoff")
		layer["export.handoff_ns_p99"] = metric{percentile(handoffs, 0.99), "ns"}
		layer["export.handoff_blocked_share"] = metric{share(sum(handoffs), sum(tr.durations("detect.checkpoint"))), "ratio"}
		layer["export.sink_write_ns_p50"] = metric{percentile(tr.durations("export.sink_write"), 0.5), "ns"}
		bytes, _ := dirBytes(filepath.Join(w.root, fleetOrigin))
		layer["export.bytes_per_event"] = metric{share(bytes, int64(st.Events)), "B"}
		layer["export.dropped"] = metric{float64(es.DroppedEvents), "count"}
		if flushes := tr.durations("export.sink_flush"); len(flushes) > 0 {
			layer["net.flush_ack_ns"] = metric{float64(flushes[len(flushes)-1]), "ns"}
		}
		layer["net.acked_records"] = metric{float64(ns.Acked), "count"}
		layer["net.resent_records"] = metric{float64(ns.Resent), "count"}
		layer["net.reconnects"] = metric{float64(max(ns.Reconnects-1, 0)), "count"}
		layer["store.readdir_ns"] = metric{float64(readNs), "ns"}
		fillIdleLayers(layer)
		o.layer = layer
	}
	return o, nil
}

// countStored reads every WAL file of an export directory and counts
// its events, its Wait events and its blocked Enters.
func countStored(dir string) (events, waits, blocked int64, err error) {
	files, err := export.WALFiles(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, f := range files {
		rep, err := export.ReadWALFile(f)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, seg := range rep.Segments {
			events += int64(len(seg.Events))
			for _, e := range seg.Events {
				switch {
				case e.Type == event.Wait:
					waits++
				case e.Type == event.Enter && e.Flag == event.Blocked:
					blocked++
				}
			}
		}
	}
	return events, waits, blocked, nil
}

// measureNs runs fn, in a span named name when traced, and returns its
// duration in nanoseconds.
func measureNs(tr *tracer, name string, fn func()) int64 {
	if tr != nil {
		return int64(tr.timed(name, fn))
	}
	start := time.Now()
	fn()
	return int64(time.Since(start))
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
