package detect

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// The detector returns every batch it exclusively owns to the
// history's slab pool right after replaying it. These tests pin both
// halves of that contract: a batch a drain tee saw is never recycled
// (a tee may keep it for as long as it likes), and without tees the
// shard → detector → pool → shard cycle really closes.

// segSum fingerprints a segment's contents; a recycled slab is cleared
// and then refilled by later drains, so a tee-retained segment that was
// recycled by mistake no longer matches the sum taken when it was teed.
func segSum(seg event.Seq) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range seg {
		for _, v := range [...]uint64{uint64(e.Seq), uint64(e.Pid), uint64(e.Type), uint64(len(e.Monitor)), uint64(len(e.Proc))} {
			h ^= v
			h *= 1099511628211
		}
	}
	return h
}

// keepingTee retains every segment it is fed, with its fingerprint.
type keepingTee struct {
	mu   sync.Mutex
	segs []event.Seq
	sums []uint64
}

func (k *keepingTee) consume(_ string, seg event.Seq) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.segs = append(k.segs, seg)
	k.sums = append(k.sums, segSum(seg))
}

// TestTeedSegmentsNeverRecycled retains every teed segment while
// checkpoints run and the tee is installed and removed concurrently,
// then keeps checkpointing without a tee so recycled slabs are reused
// and overwritten. A segment recycled while a tee held it would fail
// its fingerprint. Run under -race.
func TestTeedSegmentsNeverRecycled(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name         string
		hold, global bool
	}{
		{"hold-world", true, false},
		{"per-monitor", false, false},
		{"global-lock/hold-world", true, true},
		{"global-lock/per-monitor", false, true},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			opts := []history.Option{history.WithObs(reg)}
			if c.global {
				opts = append(opts, history.WithGlobalLock())
			}
			db := history.New(opts...)
			mons := newManyMonitors(t, db, 4)
			det := New(db, Config{
				Tmax: time.Minute, Tio: time.Minute, Clock: clock.Real{},
				HoldWorld: c.hold, BatchSize: 16, Workers: 2,
			}, mons...)

			check := func() {
				if vs := det.CheckNow(); len(vs) != 0 {
					t.Fatalf("clean workload reported violations: %v", vs)
				}
			}
			// phase checkpoints back to back while a bounded workload
			// runs (bounded, so a checkpoint falling behind the producers
			// cannot grow the backlog without limit).
			phase := func() {
				done := make(chan struct{})
				go func() {
					defer close(done)
					hammer(proc.NewRuntime(), mons, 2, 2000)
				}()
				for {
					check()
					select {
					case <-done:
						check()
						return
					default:
					}
				}
			}

			keep := &keepingTee{}
			stopToggle := make(chan struct{})
			toggled := make(chan struct{})
			go func() {
				defer close(toggled)
				for {
					select {
					case <-stopToggle:
						db.SetDrainTee(nil)
						return
					default:
					}
					db.AddDrainTee(keep.consume)
					runtime.Gosched()
					db.SetDrainTee(nil)
					runtime.Gosched()
				}
			}()
			stopToggling := sync.OnceFunc(func() { close(stopToggle); <-toggled })
			defer stopToggling()
			phase()
			stopToggling()
			// Tee-free checkpoints: every batch is owned now, so the pool
			// turns over and any wrongly recycled slab is overwritten.
			phase()

			keep.mu.Lock()
			defer keep.mu.Unlock()
			if len(keep.segs) == 0 {
				t.Fatal("the tee never saw a segment; the test exercised nothing")
			}
			for i, seg := range keep.segs {
				if segSum(seg) != keep.sums[i] {
					t.Fatalf("teed segment %d of %d changed after it was teed: recycled while a tee held it", i, len(keep.segs))
				}
			}
			recycled, _ := reg.Snapshot().Counter("history_slab_recycle_total")
			if c.global && recycled != 0 {
				t.Fatalf("WithGlobalLock recycled %d slabs; its segments are never owned", recycled)
			}
			if !c.global && recycled == 0 {
				t.Fatal("no slab recycled: the detector never closed the pool cycle")
			}
		})
	}
}

// TestDetectorClosesSlabCycle runs one deterministic workload, with
// violations, through an instrumented detector twice: without an
// exporter the detector recycles its drained batches and the pool
// serves later drains; with an exporter every batch is teed, so
// nothing is recycled. Both runs must find the same violations.
// (Not parallel: the slab pool is process-wide, and the hit counter is
// only meaningful while no other test in the package draws from it.)
func TestDetectorClosesSlabCycle(t *testing.T) {
	run := func(withExporter bool) (vs []rules.Violation, recycled, hitsMid, hitsEnd int64) {
		reg := obs.NewRegistry()
		db := history.New(history.WithObs(reg))
		clk := clock.NewVirtual(epoch)
		mons := newManyMonitors(t, db, 2, monitor.WithClock(clk))
		cfg := Config{
			Tmax: time.Hour, Tio: time.Hour, Clock: clk,
			HoldWorld: true, BatchSize: 256, Obs: reg,
		}
		if withExporter {
			cfg.Exporter = &collectExporter{}
		}
		det := New(db, cfg, mons...)
		hits := func() int64 {
			n, _ := reg.Snapshot().Counter("history_pool_hit_total")
			return n
		}
		const rounds = 20
		for r := 0; r < rounds; r++ {
			rt := proc.NewRuntime()
			for _, m := range mons {
				m := m
				rt.Spawn("w", func(p *proc.P) {
					for j := 0; j < 300; j++ {
						if err := m.Enter(p, "Op"); err != nil {
							return
						}
						_ = m.Exit(p, "Op")
					}
				})
				rt.Join()
			}
			if r%5 == 4 {
				// An entry the monitor never recorded: ST-3b at this
				// checkpoint, at a deterministic sequence number.
				rt.Spawn("ghost", func(p *proc.P) {
					mons[0].InjectBareEntry(p, "Op")
					_ = mons[0].Exit(p, "Op")
				})
				rt.Join()
			}
			clk.Advance(time.Millisecond)
			vs = append(vs, det.CheckNow()...)
			if r == rounds/2 {
				hitsMid = hits()
			}
		}
		recycled, _ = reg.Snapshot().Counter("history_slab_recycle_total")
		return vs, recycled, hitsMid, hits()
	}

	owned, recycled, hitsMid, hitsEnd := run(false)
	if recycled == 0 {
		t.Fatal("history_slab_recycle_total = 0 without an exporter: the detector did not recycle its batches")
	}
	if hitsEnd <= hitsMid {
		t.Fatalf("history_pool_hit_total did not rise over later checkpoints (%d → %d): recycled slabs are not coming back", hitsMid, hitsEnd)
	}
	teed, recycled, _, _ := run(true)
	if recycled != 0 {
		t.Fatalf("history_slab_recycle_total = %d with an exporter attached: a teed batch was recycled", recycled)
	}
	if len(owned) == 0 || !rules.HasRule(owned, rules.ST3b) {
		t.Fatalf("violations = %v, want the injected ST-3b findings", owned)
	}
	if !reflect.DeepEqual(owned, teed) {
		t.Fatalf("violation sets differ:\nrecycling: %v\nexporting: %v", owned, teed)
	}
}
