package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"robustmon/internal/detect"
	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// newRand expands a workload seed into a generator; stream separates
// the independent input streams drawn from one seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Seed streams.
const (
	streamOps uint64 = iota + 1
	streamCanary
	streamQueries
)

// opManagerSpec declares one operation-manager monitor with procs
// procedures Op0..Op<procs-1>.
func opManagerSpec(name string, procs int) monitor.Spec {
	spec := monitor.Spec{Name: name, Kind: monitor.OperationManager, Conditions: []string{"ok"}}
	for i := 0; i < procs; i++ {
		spec.Procedures = append(spec.Procedures, fmt.Sprintf("Op%d", i))
	}
	return spec
}

// opScript is a seeded cyclic script of procedure indices, one per
// application call.
type opScript struct {
	procs []uint8
	i     int
}

func newOpScript(r *rand.Rand, length, procs int) *opScript {
	s := &opScript{procs: make([]uint8, length)}
	for i := range s.procs {
		s.procs[i] = uint8(r.IntN(procs))
	}
	return s
}

func (s *opScript) next() int {
	p := s.procs[s.i]
	s.i++
	if s.i == len(s.procs) {
		s.i = 0
	}
	return int(p)
}

// procNames caches "Op0".."Op<n-1>" so calls do not format names.
func procNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Op%d", i)
	}
	return out
}

// detectorRun runs det.Run on its own goroutine; stop cancels it and
// returns once Run has made its final checkpoint and returned.
func detectorRun(det *detect.Detector) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		det.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

func enterExit(m *monitor.Monitor, p *proc.P, name string) error {
	if err := m.Enter(p, name); err != nil {
		return err
	}
	return m.Exit(p, name)
}

// Canary states.
const (
	canaryIdle int32 = iota
	canaryFired
	canaryReported
)

// canaryName is the canary monitor of every workload.
const canaryName = "canary"

// canary is the monitor that takes the seeded faults. One application
// goroutine fires them: a canary call enters the monitor, waits on its
// condition under an armed WaitNoBlock injector (so the wait returns at
// once, fault I.b.1) and exits. The detector reports the fault, and the
// report requests a shard-local RequestReset that restores the monitor.
// Only then, after a seeded number of further calls, does the next
// canary fire, so each fault is detected on its own.
type canary struct {
	mon  *monitor.Monitor
	inj  *faults.Injector
	det  *detect.Detector
	base time.Time
	gaps []int
	// drop makes the next canary call run without its fault while still
	// expecting a report (self-test only).
	drop bool

	// Driving goroutine only.
	gi, countdown int
	fired         int64

	state   atomic.Int32
	firedAt atomic.Int64 // ns since base when the canary call returned; 0 while in flight

	mu       sync.Mutex
	reported int64
	extra    int64 // canary violations outside any outstanding canary
	delays   []int64
}

// newCanary builds the canary monitor. The number of application calls
// between one canary's recovery and the next is seeded, uniform in
// [0, 2*gapMean), so each canary lands at a random phase of the checking
// period.
func newCanary(seed uint64, gapMean int, opts ...monitor.Option) (*canary, error) {
	c := &canary{inj: faults.NewInjector(faults.WaitNoBlock), base: time.Now()}
	r := newRand(seed, streamCanary)
	c.gaps = make([]int, 1024)
	for i := range c.gaps {
		c.gaps[i] = r.IntN(2 * gapMean)
	}
	c.countdown = c.gaps[0]
	opts = append(opts, monitor.WithHooks(c.inj.Hooks()))
	m, err := monitor.New(opManagerSpec(canaryName, 1), opts...)
	if err != nil {
		return nil, err
	}
	c.mon = m
	return c, nil
}

// step is called by the driving goroutine before each application
// call; it fires a canary when one is due and returns how many events
// the canary call recorded.
func (c *canary) step(p *proc.P) (int64, error) {
	if c.countdown > 0 {
		c.countdown--
		return 0, nil
	}
	switch c.state.Load() {
	case canaryFired:
		return 0, nil
	case canaryReported:
		// The reset the report requested is applied under the detector's
		// checkpoint lock before that lock is released; Stats takes the
		// lock, so once it returns the canary is restored.
		_ = c.det.Stats()
		c.state.Store(canaryIdle)
		c.gi = (c.gi + 1) % len(c.gaps)
		c.countdown = c.gaps[c.gi]
		return 0, nil
	}
	recorded := int64(2)
	if err := c.mon.Enter(p, "Op0"); err != nil {
		return 0, err
	}
	c.firedAt.Store(0)
	if c.drop {
		c.drop = false
	} else {
		c.inj.Arm()
		if err := c.mon.Wait(p, "Op0", "ok"); err != nil {
			return 0, err
		}
		recorded++
	}
	c.state.Store(canaryFired)
	if err := c.mon.Exit(p, "Op0"); err != nil {
		return 0, err
	}
	c.firedAt.Store(int64(time.Since(c.base)))
	c.fired++
	return recorded, nil
}

// onViolation accounts one canary violation; at is when the detector
// reported it. A fault's violations all come from the checkpoint that
// finds it; the first reports the canary and requests its reset.
func (c *canary) onViolation(v rules.Violation, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state.Load() {
	case canaryFired:
		fired := c.firedAt.Load()
		for fired == 0 {
			// The canary call's events are checked, but its goroutine has
			// not yet stamped the call's return.
			runtime.Gosched()
			fired = c.firedAt.Load()
		}
		c.delays = append(c.delays, int64(at.Sub(c.base))-fired)
		c.reported++
		c.state.Store(canaryReported)
		c.det.RequestReset(canaryName, v)
	case canaryReported:
		// Another rule's violation of the same fault.
	default:
		c.extra++
	}
}

// verdicts routes the detector's violations: canary violations to the
// canary accounting, and anything on another monitor, apart from the
// meta-violations of threshold rules, is a false report.
type verdicts struct {
	can *canary

	mu    sync.Mutex
	clean []rules.Violation
}

func (vd *verdicts) onViolation(v rules.Violation) {
	at := time.Now()
	switch {
	case v.Rule == rules.Meta:
	case v.Monitor == canaryName:
		vd.can.onViolation(v, at)
	default:
		vd.mu.Lock()
		if len(vd.clean) < 8 {
			vd.clean = append(vd.clean, v)
		}
		vd.mu.Unlock()
	}
}

// check adds the canary and clean-monitor checks to o: every fired
// canary reported exactly once and no violation on a clean monitor.
func (vd *verdicts) check(o *outcome) {
	c := vd.can
	c.mu.Lock()
	defer c.mu.Unlock()
	o.attempted += c.fired
	if missed := c.fired - c.reported; missed != 0 {
		o.fail("%d of %d canaries not reported", missed, c.fired)
		o.failed += missed - 1
	}
	o.check(c.extra == 0, "%d canary violations outside any outstanding canary", c.extra)
	vd.mu.Lock()
	defer vd.mu.Unlock()
	o.check(len(vd.clean) == 0, "violations on clean monitors: %v", vd.clean)
}

// reportDelays returns the detection delays of the reported canaries.
func (c *canary) reportDelays() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delays
}
