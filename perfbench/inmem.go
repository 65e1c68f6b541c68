package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
)

// inmem-16mon: 16 operation-manager monitors share one history; two
// application goroutines each call 8 of them round-robin, and a
// hold-world detector with a fixed period checks them, without an
// exporter. All the time goes to monitor → history → detect.
const (
	inmemMonitors  = 16
	inmemCallers   = 2
	inmemProcs     = 4 // procedures per monitor, chosen per call by the seeded script
	inmemScriptLen = 4096
	inmemWarmup    = 200_000 // calls per caller in each set-up
	inmemInterval  = 5 * time.Millisecond
	inmemBatch     = 256
	inmemCanaryGap = 1000 // mean calls between canaries on the canary's caller
)

// inmemPipeline is one set-up of the inmem-16mon workload.
type inmemPipeline struct {
	db      *history.DB
	mons    []*monitor.Monitor
	scripts []*opScript
	names   []string
	can     *canary
	vd      *verdicts
	det     *detect.Detector
	tr      *tracer
	// calls and canary events recorded per caller, warm-up included.
	calls, canaryEvents [inmemCallers]int64

	stopDet func()
}

func newInmemPipeline(cfg runConfig, tr *tracer) (*inmemPipeline, error) {
	w := &inmemPipeline{db: history.New(), names: procNames(inmemProcs), tr: tr}
	var rec monitor.Recorder = w.db
	if tr != nil {
		rec = &tracedRecorder{next: w.db, t: tr}
	}
	r := newRand(cfg.seed, streamOps)
	for i := 0; i < inmemMonitors; i++ {
		mrec := rec
		if i == 0 && cfg.inject == injectDropEvent {
			mrec = &droppingRecorder{next: rec, at: 1000}
		}
		m, err := monitor.New(opManagerSpec(fmt.Sprintf("mon%02d", i), inmemProcs), monitor.WithRecorder(mrec))
		if err != nil {
			return nil, err
		}
		w.mons = append(w.mons, m)
	}
	for g := 0; g < inmemCallers; g++ {
		w.scripts = append(w.scripts, newOpScript(r, inmemScriptLen, inmemProcs))
	}
	can, err := newCanary(cfg.seed, cfg.size(inmemCanaryGap), monitor.WithRecorder(rec))
	if err != nil {
		return nil, err
	}
	can.drop = cfg.inject == injectDropCanary
	w.can = can
	w.vd = &verdicts{can: can}
	dcfg := detect.Config{
		Interval:    inmemInterval,
		Tmax:        time.Hour,
		Tio:         time.Hour,
		BatchSize:   inmemBatch,
		OnViolation: w.vd.onViolation,
	}
	if tr != nil {
		dcfg.Clock = newTracedClock(tr)
	} else {
		dcfg.Clock = clock.Real{}
	}
	w.det = detect.NewDefault(w.db, dcfg, append(w.mons, can.mon)...)
	can.det = w.det
	w.stopDet = detectorRun(w.det)

	if err := w.drive(int64(cfg.size(inmemWarmup)), nil, nil, false); err != nil {
		return nil, err
	}
	return w, nil
}

// drive runs both callers until each made limit calls (limit > 0) or
// stop is set, and returns the first error; sampled calls are timed
// into samplers. The first caller also fires canaries when withCanary
// is set.
func (w *inmemPipeline) drive(limit int64, stop *atomic.Bool, samplers []*latencySampler, withCanary bool) error {
	rt := proc.NewRuntime()
	errs := make([]error, inmemCallers)
	for g := 0; g < inmemCallers; g++ {
		rt.Spawn(fmt.Sprintf("caller%d", g), func(p *proc.P) {
			var s *latencySampler
			if samplers != nil {
				s = samplers[g]
			}
			var can *canary
			if withCanary && g == 0 {
				can = w.can
			}
			errs[g] = w.driveOne(p, g, limit, stop, s, can)
		})
	}
	rt.Join()
	return errors.Join(errs...)
}

// driveOne is one caller's closed loop: one Enter/Exit call after
// another over its 8 monitors, round-robin.
func (w *inmemPipeline) driveOne(p *proc.P, g int, limit int64, stop *atomic.Bool, s *latencySampler, can *canary) error {
	per := inmemMonitors / inmemCallers
	mons := w.mons[g*per : (g+1)*per]
	script := w.scripts[g]
	pid := p.ID()
	k := 0
	for n := int64(0); limit == 0 || n < limit; n++ {
		if stop != nil && stop.Load() {
			return nil
		}
		if can != nil {
			recorded, err := can.step(p)
			if err != nil {
				return err
			}
			w.canaryEvents[g] += recorded
		}
		m := mons[k]
		k++
		if k == per {
			k = 0
		}
		name := w.names[script.next()]
		var err error
		if s != nil && s.due() {
			if w.tr != nil {
				w.tr.beginOp(pid, "monitor.call")
			}
			t0 := time.Now()
			err = enterExit(m, p, name)
			s.add(t0, time.Since(t0))
			if w.tr != nil {
				w.tr.endOp(pid)
			}
		} else {
			err = enterExit(m, p, name)
		}
		if err != nil {
			return err
		}
		w.calls[g]++
	}
	return nil
}

func runInmem(cfg runConfig, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var w *inmemPipeline
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.stopDet()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = newInmemPipeline(cfg, tr); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}

	samplers := []*latencySampler{{}, {}}
	var layer map[string]metric
	if tr != nil {
		layer = map[string]metric{}
	}
	stBefore := w.det.Stats()
	totalBefore := w.db.Total()
	callsBefore := w.calls[0] + w.calls[1]
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
	callErr := w.drive(0, &stop, samplers, true)
	o.opWall = time.Since(tp.start)
	w.stopDet()
	o.checkWall = time.Since(tp.start)
	tp.end(o, layer)

	st := w.det.Stats()
	calls := w.calls[0] + w.calls[1]
	o.ops = calls - callsBefore
	recorded := w.db.Total() - totalBefore
	o.events = recorded - int64(st.ResetDropped-stBefore.ResetDropped)
	o.memEvents = recorded
	o.collectSamples(samplers...)

	// Correctness: every call succeeded, the history holds exactly the
	// events the calls made, the detector replayed all of them, every
	// canary was reported once and no clean monitor was flagged.
	o.attempted += o.ops
	if callErr != nil {
		o.fail("application call failed: %v", callErr)
	}
	want := 2*calls + w.canaryEvents[0] + w.canaryEvents[1]
	o.check(w.db.Total() == want, "history holds %d events, the calls recorded %d", w.db.Total(), want)
	o.check(int64(st.Events+st.ResetDropped) == w.db.Total(),
		"detector replayed %d events (+%d discarded by resets), history holds %d", st.Events, st.ResetDropped, w.db.Total())
	w.vd.check(o)
	o.delays = w.can.reportDelays()

	if tr != nil {
		detectLayer(layer, tr, stBefore, st, o.checkWall)
		layer["monitor.op_self_ns_p50"] = metric{percentile(tr.selfTimes("monitor.call"), 0.5), "ns"}
		historyLayer(layer, tr, appendsBefore)
		fillIdleLayers(layer)
		o.layer = layer
	}
	return o, nil
}

// droppingRecorder loses the at-th event (self-test only).
type droppingRecorder struct {
	next monitor.Recorder
	n    int
	at   int
}

func (r *droppingRecorder) Append(e event.Event) event.Event {
	r.n++
	if r.n == r.at {
		return e
	}
	return r.next.Append(e)
}
