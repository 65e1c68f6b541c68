package history

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
)

// apFor appends one Enter event for the named monitor and returns its
// assigned sequence number.
func apFor(db *DB, mon string) int64 {
	e := db.Append(event.Event{Monitor: mon, Type: event.Enter, Time: time.Unix(0, 0)})
	return e.Seq
}

func TestEventCountPerMonitor(t *testing.T) {
	t.Parallel()
	for _, global := range []bool{false, true} {
		global := global
		t.Run(fmt.Sprintf("global=%v", global), func(t *testing.T) {
			t.Parallel()
			var opts []Option
			if global {
				opts = append(opts, WithGlobalLock())
			}
			db := New(opts...)
			for i := 0; i < 5; i++ {
				apFor(db, "a")
			}
			for i := 0; i < 3; i++ {
				apFor(db, "b")
			}
			if got := db.EventCount("a"); got != 5 {
				t.Fatalf("EventCount(a) = %d, want 5", got)
			}
			if got := db.EventCount("b"); got != 3 {
				t.Fatalf("EventCount(b) = %d, want 3", got)
			}
			if got := db.EventCount("never-seen"); got != 0 {
				t.Fatalf("EventCount(never-seen) = %d, want 0", got)
			}
			// Draining must not rewind the cumulative counters: the
			// scheduler's rate estimator differences them across ticks.
			db.Drain()
			if got := db.EventCount("a"); got != 5 {
				t.Fatalf("EventCount(a) after drain = %d, want 5", got)
			}
		})
	}
}

func TestDrainMonitorUpToBatches(t *testing.T) {
	t.Parallel()
	for _, global := range []bool{false, true} {
		global := global
		t.Run(fmt.Sprintf("global=%v", global), func(t *testing.T) {
			t.Parallel()
			var opts []Option
			if global {
				opts = append(opts, WithGlobalLock())
			}
			db := New(opts...)
			// Interleave two monitors so the global-lock filter path is
			// exercised: a b a b a b a b a b.
			var aSeqs []int64
			for i := 0; i < 5; i++ {
				aSeqs = append(aSeqs, apFor(db, "a"))
				apFor(db, "b")
			}
			horizon := aSeqs[3] // four of a's five events are ≤ horizon

			var drained []int64
			batches := 0
			for {
				seg, more, _ := db.DrainMonitorUpTo("a", horizon, 3)
				batches++
				for _, e := range seg {
					if e.Monitor != "a" {
						t.Fatalf("drained foreign event %+v", e)
					}
					if e.Seq > horizon {
						t.Fatalf("drained event %d beyond horizon %d", e.Seq, horizon)
					}
					drained = append(drained, e.Seq)
				}
				if !more {
					break
				}
			}
			// Sharded shards honour max (2 batches of ≤3); the global-lock
			// shard drains its whole eligible set in one filter pass.
			wantBatches := 2
			if global {
				wantBatches = 1
			}
			if batches != wantBatches {
				t.Fatalf("drained 4 events in %d batches, want %d", batches, wantBatches)
			}
			for i, s := range drained {
				if s != aSeqs[i] {
					t.Fatalf("drained[%d] = seq %d, want %d", i, s, aSeqs[i])
				}
			}
			// The fifth a-event (beyond the horizon) and all of b's events
			// must still be buffered.
			rest := db.Drain()
			if len(rest) != 6 {
				t.Fatalf("left %d events buffered, want 6 (1 of a + 5 of b)", len(rest))
			}
			for _, e := range rest {
				if e.Monitor == "a" && e.Seq <= horizon {
					t.Fatalf("event %d of a should have been drained", e.Seq)
				}
			}
		})
	}
}

func TestDrainMonitorUpToNoBound(t *testing.T) {
	t.Parallel()
	db := New()
	for i := 0; i < 7; i++ {
		apFor(db, "a")
	}
	seg, more, _ := db.DrainMonitorUpTo("a", db.LastSeq(), 0)
	if len(seg) != 7 || more {
		t.Fatalf("unbounded drain: %d events, more=%v; want 7, false", len(seg), more)
	}
}

func TestDrainMonitorUpToFeedsTees(t *testing.T) {
	t.Parallel()
	db := New()
	var mu sync.Mutex
	var teed []int64
	db.AddDrainTee(func(mon string, seg event.Seq) {
		mu.Lock()
		defer mu.Unlock()
		if mon != "a" {
			t.Errorf("tee saw monitor %q", mon)
		}
		for _, e := range seg {
			teed = append(teed, e.Seq)
		}
	})
	for i := 0; i < 6; i++ {
		apFor(db, "a")
	}
	for {
		if _, more, _ := db.DrainMonitorUpTo("a", db.LastSeq(), 4); !more {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(teed) != 6 {
		t.Fatalf("tee observed %d events, want 6", len(teed))
	}
	for i, s := range teed {
		if s != int64(i+1) {
			t.Fatalf("tee order broken: teed[%d] = %d", i, s)
		}
	}
}

// TestDrainMonitorUpToReportsOwnership pins the ownership answer: a
// batch is owned exactly when no tee saw it, and never under
// WithGlobalLock.
func TestDrainMonitorUpToReportsOwnership(t *testing.T) {
	t.Parallel()
	drainOne := func(db *DB) bool {
		apFor(db, "a")
		seg, _, owned := db.DrainMonitorUpTo("a", db.LastSeq(), 0)
		if len(seg) != 1 {
			t.Fatalf("drained %d events, want 1", len(seg))
		}
		return owned
	}
	db := New()
	if !drainOne(db) {
		t.Error("untapped drain not owned")
	}
	db.AddDrainTee(func(string, event.Seq) {})
	if drainOne(db) {
		t.Error("teed drain reported owned")
	}
	db.SetDrainTee(nil)
	if !drainOne(db) {
		t.Error("drain after SetDrainTee(nil) not owned")
	}
	if drainOne(New(WithGlobalLock())) {
		t.Error("WithGlobalLock drain reported owned")
	}
}

// TestEventCountConcurrentWithDrains hammers counters, appends and
// batched drains together under -race: EventCount must be readable at
// any instant without tearing.
func TestEventCountConcurrentWithDrains(t *testing.T) {
	t.Parallel()
	db := New()
	const mons = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for m := 0; m < mons; m++ {
		name := fmt.Sprintf("m%d", m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				apFor(db, name)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					db.EventCount(name)
					db.DrainMonitorUpTo(name, db.LastSeq(), 16)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	total := int64(0)
	for m := 0; m < mons; m++ {
		total += db.EventCount(fmt.Sprintf("m%d", m))
	}
	if total != mons*500 {
		t.Fatalf("counters sum to %d, want %d", total, mons*500)
	}
}
